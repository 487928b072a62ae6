//! Inputs of the closed-loop workloads, their reference fingerprints,
//! and the byte format that hands them to the workload process.

use std::time::Instant;

use rock_binary::image_to_bytes;
use rock_core::{evaluate, suite, Parallelism, Reconstruction, Rock, RockConfig};
use rock_loader::LoadedBinary;
use rock_serve::result_fp;
use rock_supervisor::JobOutput;

use crate::report::Report;
use crate::Workload;

/// One image to reconstruct and the fingerprint its result must have.
pub struct Input {
    pub name: String,
    pub bytes: Vec<u8>,
    pub expect: u64,
}

/// The configuration a workload's timed operations run under: `Serial`
/// everywhere. At `Threads(2)` a job also waits for the VM's second
/// vCPU, which the host lends out: on a 2-vCPU VM the `paper_suite`
/// median doubled for minutes at a time while the same jobs run
/// `Serial` in between moved by 10%, so a parallel speed-up here would
/// measure the neighbours, not the program.
pub fn config(workload: Workload) -> RockConfig {
    let config = RockConfig::paper().with_parallelism(Parallelism::Serial);
    match workload {
        // As `rock batch --corpus` runs it: position-independent keys.
        Workload::FleetDedup => config.with_canonical_calls(),
        _ => config,
    }
}

/// Fleet shape: 120 members over 40 app templates, so each template
/// appears three times. With two appearances the median job would sit
/// exactly between the first-sighting and repeat clusters and jump
/// between them from run to run.
pub const FLEET_MEMBERS: usize = 120;
pub const FLEET_TEMPLATES: usize = 40;

/// The §6.1 "Skype-scale" sizes: 242, 160 and 255 types.
pub const STRESS_SIZES: [(usize, usize, usize); 3] = [(2, 5, 3), (4, 4, 3), (3, 4, 4)];

/// Table 2 golden values, the same values and tolerances as
/// `tests/table2_golden.rs`: (name, without (missing, added), with
/// (missing, added)).
type GoldenRow = (&'static str, (f64, f64), (f64, f64));
const GOLDEN: &[GoldenRow] = &[
    ("AntispyComplete", (0.00, 0.00), (0.00, 0.00)),
    ("bafprp", (0.13, 0.00), (0.13, 0.00)),
    ("cppcheck", (0.00, 0.00), (0.00, 0.00)),
    ("MidiLib", (0.00, 0.00), (0.00, 0.00)),
    ("patl", (0.00, 0.00), (0.00, 0.00)),
    ("pop3", (0.00, 0.00), (0.00, 0.00)),
    ("smtp", (0.00, 0.00), (0.00, 0.00)),
    ("tinyxml", (0.89, 0.00), (0.89, 0.00)),
    ("tinyxmlSTL", (0.20, 0.00), (0.20, 0.00)),
    ("yafc", (0.00, 0.00), (0.00, 0.00)),
    ("Analyzer", (0.00, 13.08), (0.79, 2.17)),
    ("CGridListCtrlEx", (0.00, 0.14), (0.00, 0.07)),
    ("echoparams", (0.00, 1.50), (0.25, 0.00)),
    ("gperf", (0.00, 7.50), (0.40, 1.20)),
    ("libctemplate", (0.00, 4.25), (0.08, 0.78)),
    ("ShowTraf", (0.00, 0.12), (0.00, 0.04)),
    ("Smoothing", (0.00, 9.94), (0.29, 1.71)),
    ("td_unittest", (0.00, 1.00), (0.00, 0.50)),
    ("tinyserver", (0.00, 1.50), (0.25, 0.75)),
];
const GOLDEN_TOLERANCE: f64 = 0.35;
const GOLDEN_TOLERANCE_RESOLVABLE: f64 = 0.02;

/// The content fingerprint (hierarchy plus distance bits) of a result.
pub fn fingerprint(recon: Reconstruction) -> u64 {
    result_fp(&JobOutput::Full(Box::new(recon)))
}

/// Compiles a closed-loop workload's inputs and computes each one's
/// reference: a `Serial` run on a fresh reconstructor with no corpus.
/// Records `harness.inputs_s` and `harness.reference_s`; a Table 2
/// golden miss counts as a failure.
pub fn generate(workload: Workload, report: &mut Report) -> Vec<Input> {
    let t = Instant::now();
    let benches: Vec<suite::Benchmark> = match workload {
        Workload::PaperSuite => suite::all_benchmarks(),
        Workload::StressScale => {
            STRESS_SIZES.iter().map(|&(f, d, o)| suite::stress_program(f, d, o)).collect()
        }
        Workload::FleetDedup => {
            (0..FLEET_MEMBERS).map(|i| suite::corpus_member(i, FLEET_TEMPLATES)).collect()
        }
        Workload::ServePatch => unreachable!("serve_patch generates its own inputs"),
    };
    let compiled: Vec<_> =
        benches.iter().map(|b| b.compile().expect("suite programs compile")).collect();
    let bytes: Vec<Vec<u8>> =
        compiled.iter().map(|c| image_to_bytes(&c.stripped_image())).collect();
    report.set("harness.inputs_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let reference = config(workload);
    let mut inputs = Vec::new();
    for (i, (bench, (compiled, bytes))) in
        benches.iter().zip(compiled.iter().zip(bytes)).enumerate()
    {
        let loaded = LoadedBinary::load(compiled.stripped_image()).expect("suite image loads");
        let recon = Rock::new(reference).reconstruct(&loaded);
        if workload == Workload::PaperSuite {
            check_golden(bench, &evaluate(compiled, &recon), report);
        }
        let name = match workload {
            Workload::StressScale => {
                let (f, d, o) = STRESS_SIZES[i];
                format!("stress({f},{d},{o})")
            }
            Workload::FleetDedup => format!("member{i}"),
            _ => bench.name.to_string(),
        };
        inputs.push(Input { name, bytes, expect: fingerprint(recon) });
    }
    report.set("harness.reference_s", t.elapsed().as_secs_f64());
    inputs
}

fn check_golden(bench: &suite::Benchmark, eval: &rock_core::Evaluation, report: &mut Report) {
    let Some((_, want_without, want_with)) = GOLDEN.iter().find(|g| g.0 == bench.name) else {
        report.fail(format!("{}: no Table 2 golden row", bench.name));
        return;
    };
    let tol =
        if bench.structurally_resolvable { GOLDEN_TOLERANCE_RESOLVABLE } else { GOLDEN_TOLERANCE };
    for (label, got, want) in [
        ("without.missing", eval.without_slm.avg_missing, want_without.0),
        ("without.added", eval.without_slm.avg_added, want_without.1),
        ("with.missing", eval.with_slm.avg_missing, want_with.0),
        ("with.added", eval.with_slm.avg_added, want_with.1),
    ] {
        if (got - want).abs() > tol {
            report.fail(format!(
                "Table 2 {} {label}: got {got:.3}, golden {want:.3} (tol {tol})",
                bench.name
            ));
        }
    }
}

/// Length-prefixed: count, then per input name, bytes and expectation.
pub fn encode(inputs: &[Input]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(inputs.len() as u64).to_le_bytes());
    for input in inputs {
        for field in [input.name.as_bytes(), &input.bytes] {
            out.extend_from_slice(&(field.len() as u64).to_le_bytes());
            out.extend_from_slice(field);
        }
        out.extend_from_slice(&input.expect.to_le_bytes());
    }
    out
}

pub fn decode(mut data: &[u8]) -> Result<Vec<Input>, String> {
    fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
        if data.len() < n {
            return Err("truncated input stream".into());
        }
        let (head, rest) = data.split_at(n);
        *data = rest;
        Ok(head)
    }
    fn word(data: &mut &[u8]) -> Result<u64, String> {
        Ok(u64::from_le_bytes(take(data, 8)?.try_into().expect("8 bytes")))
    }
    let count = word(&mut data)?;
    let mut inputs = Vec::new();
    for _ in 0..count {
        let len = word(&mut data)? as usize;
        let name = String::from_utf8(take(&mut data, len)?.to_vec()).map_err(|e| e.to_string())?;
        let len = word(&mut data)? as usize;
        let bytes = take(&mut data, len)?.to_vec();
        inputs.push(Input { name, bytes, expect: word(&mut data)? });
    }
    Ok(inputs)
}
