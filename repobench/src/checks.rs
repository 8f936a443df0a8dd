//! The benchmark's output checks. Each returns `Err` naming what is
//! wrong; a workload turns the first `Err` into a failed run that prints
//! no numbers. They are kept free of workload state so the tests below
//! can feed each one a deliberately corrupted output.

use supermarq_circuit::Circuit;
use supermarq_device::Device;
use supermarq_verify::{Diagnostic, Severity};

/// A benchmark score must be a finite number in `[0, 1]`.
pub fn score_in_unit_interval(what: &str, score: f64) -> Result<(), String> {
    if score.is_finite() && (0.0..=1.0).contains(&score) {
        Ok(())
    } else {
        Err(format!(
            "{what}: score {score} is not a finite value in [0, 1]"
        ))
    }
}

/// A compiled circuit must fit its device, and every two-qubit gate must
/// act on a pair of qubits that the device's coupling map connects. The
/// check walks the instructions itself rather than trusting the
/// transpiler's own verifier.
pub fn fits_coupling_map(what: &str, circuit: &Circuit, device: &Device) -> Result<(), String> {
    let width = device.num_qubits();
    if circuit.num_qubits() > width {
        return Err(format!(
            "{what}: circuit has {} qubits, {} has {width}",
            circuit.num_qubits(),
            device.name()
        ));
    }
    let topology = device.topology();
    for (index, instr) in circuit.instructions().iter().enumerate() {
        if let Some(&q) = instr.qubits.iter().find(|&&q| q >= width) {
            return Err(format!(
                "{what}: instruction {index} uses qubit {q} >= {width}"
            ));
        }
        if instr.gate.is_two_qubit() {
            let (a, b) = (instr.qubits[0], instr.qubits[1]);
            if !topology.are_adjacent(a, b) {
                return Err(format!(
                    "{what}: instruction {index} ({}) acts on ({a}, {b}), not a coupling edge of {}",
                    instr.gate.qasm_name(),
                    device.name()
                ));
            }
        }
    }
    Ok(())
}

/// A served response must be byte-identical to the record line written
/// when the store was filled.
pub fn same_line(what: &str, got: &str, expected: &str) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(expected.len()));
    Err(format!(
        "{what}: response differs from the stored record at byte {at} \
         ({} bytes received, {} expected)",
        got.len(),
        expected.len()
    ))
}

/// The simulator's shot counter must advance by exactly the shots the
/// grid asked for: shots x repetitions x circuits, summed over cells.
pub fn shot_total(what: &str, counted: u64, expected: u64) -> Result<(), String> {
    if counted == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: simulator counted {counted} shots, the grid asks for {expected}"
        ))
    }
}

/// A verifying pipeline must report no error-severity diagnostic.
pub fn no_error_diagnostics(what: &str, diagnostics: &[Diagnostic]) -> Result<(), String> {
    match diagnostics.iter().find(|d| d.severity == Severity::Error) {
        None => Ok(()),
        Some(d) => Err(format!("{what}: error diagnostic: {d}")),
    }
}

/// A statevector mirror must score 1 within `1e-9`.
pub fn near_one(what: &str, score: f64) -> Result<(), String> {
    if (score - 1.0).abs() <= 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "{what}: mirror scored {score}, expected 1 within 1e-9"
        ))
    }
}

/// A Clifford mirror must score exactly 1.
pub fn exactly_one(what: &str, score: f64) -> Result<(), String> {
    if score == 1.0 {
        Ok(())
    } else {
        Err(format!(
            "{what}: Clifford mirror scored {score}, expected exactly 1"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_store::{RunOutcome, RunRecord, RunSpec};
    use supermarq_transpile::Transpiler;

    fn non_edge(device: &Device) -> (usize, usize) {
        let n = device.num_qubits();
        (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && !device.topology().are_adjacent(a, b))
            .expect("a sparse device has a non-adjacent pair")
    }

    #[test]
    fn transpiled_circuit_passes_and_off_map_gate_is_rejected() {
        let device = Device::ibm_casablanca();
        let mut logical = Circuit::new(5);
        logical.h(0);
        for q in 0..4 {
            logical.cx(q, q + 1);
        }
        logical.measure_all();
        let compiled = Transpiler::for_device(&device).run(&logical).unwrap();
        fits_coupling_map("ghz", &compiled.circuit, &device).unwrap();

        let (a, b) = non_edge(&device);
        let mut corrupted = compiled.circuit.clone();
        corrupted.cx(a, b);
        let err = fits_coupling_map("ghz", &corrupted, &device).unwrap_err();
        assert!(err.contains("not a coupling edge"), "{err}");
    }

    #[test]
    fn circuit_wider_than_device_is_rejected() {
        let device = Device::aqt();
        let mut wide = Circuit::new(device.num_qubits() + 1);
        wide.h(0);
        assert!(fits_coupling_map("wide", &wide, &device).is_err());
    }

    #[test]
    fn scores_outside_unit_interval_are_rejected() {
        for good in [0.0, 0.37, 1.0] {
            score_in_unit_interval("cell", good).unwrap();
        }
        for bad in [-1e-12, 1.0 + 1e-12, 1.5, f64::NAN, f64::INFINITY] {
            assert!(score_in_unit_interval("cell", bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn response_with_any_single_byte_changed_is_rejected() {
        let spec = RunSpec::new("ghz", vec![("size".into(), "3".into())], "IonQ", 32, 1, 7);
        let record = RunRecord {
            spec,
            outcome: RunOutcome {
                scores: vec![0.8125],
                swap_count: 0,
                two_qubit_gates: 2,
            },
        };
        let line = record.to_line();
        same_line("run", &line, &line).unwrap();
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] = if bytes[i] == b'0' { b'1' } else { b'0' };
            let corrupted = String::from_utf8(bytes).unwrap();
            assert!(same_line("run", &corrupted, &line).is_err(), "byte {i}");
        }
        assert!(same_line("run", &line[..line.len() - 1], &line).is_err());
    }

    #[test]
    fn shot_total_off_by_one_is_rejected() {
        shot_total("pass", 12_000, 12_000).unwrap();
        assert!(shot_total("pass", 11_999, 12_000).is_err());
        assert!(shot_total("pass", 12_001, 12_000).is_err());
    }

    #[test]
    fn mirror_score_checks_reject_imperfect_scores() {
        exactly_one("ghz", 1.0).unwrap();
        assert!(exactly_one("ghz", 1.0 - f64::EPSILON).is_err());
        near_one("qft", 1.0 - 1e-12).unwrap();
        assert!(near_one("qft", 1.0 - 1e-6).is_err());
    }
}
