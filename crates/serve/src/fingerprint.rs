//! Content fingerprints of job results, for over-the-wire bit-identity.
//!
//! A job's JSON report contains wall-clock fields (`elapsed_ms`), so
//! two bit-identical reconstructions do not render byte-identical
//! reports. [`result_fp`] hashes only the *result content* — hierarchy
//! parent edges, raw distance bits, structural pins, coverage — over a
//! canonical serialization, so a client holding two `Done` states can
//! prove (or a test can pin) that an interrupted-and-resumed run
//! produced exactly the bits an uninterrupted run would have, without
//! shipping the artifacts themselves.

use rock_binary::codec::Writer;
use rock_supervisor::JobOutput;
use rock_trace::fnv1a;

/// The content fingerprint of a job's output. `JobOutput::None`
/// (failed or interrupted jobs) fingerprints to a fixed tag so it can
/// never collide with a real result by accident of emptiness.
pub fn result_fp(output: &JobOutput) -> u64 {
    let mut w = Writer::new();
    match output {
        JobOutput::Full(r) => {
            w.u8(1);
            // Hierarchy: every (node, parent?) edge, in the forest's
            // sorted node order.
            w.len(r.hierarchy.len());
            for node in r.hierarchy.nodes() {
                w.addr(*node);
                match r.hierarchy.parent_of(node) {
                    None => w.u8(0),
                    Some(p) => {
                        w.u8(1);
                        w.addr(*p);
                    }
                }
            }
            // Distances: raw f64 bits per surviving edge (BTreeMap
            // iteration order is canonical).
            w.len(r.distances.len());
            for ((parent, child), d) in &r.distances {
                w.addr(*parent);
                w.addr(*child);
                w.f64_bits(*d);
            }
            // Structural pins.
            w.len(r.structural.pinned().len());
            for (child, parent) in r.structural.pinned() {
                w.addr(*child);
                w.addr(*parent);
            }
            // Coverage, field by field.
            let c = &r.coverage;
            for v in [
                c.functions_total,
                c.functions_analyzed,
                c.functions_skipped,
                c.functions_timed_out,
                c.vtables_parsed,
                c.vtables_rejected,
                c.models_trained,
                c.families_total,
                c.families_lifted,
                c.families_degraded,
            ] {
                w.u64(v as u64);
            }
        }
        JobOutput::StructuralOnly { hierarchy, structural, .. } => {
            w.u8(2);
            w.len(hierarchy.len());
            for node in hierarchy.nodes() {
                w.addr(*node);
                match hierarchy.parent_of(node) {
                    None => w.u8(0),
                    Some(p) => {
                        w.u8(1);
                        w.addr(*p);
                    }
                }
            }
            w.len(structural.pinned().len());
            for (child, parent) in structural.pinned() {
                w.addr(*child);
                w.addr(*parent);
            }
        }
        JobOutput::None => w.u8(0),
    }
    fnv1a(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_binary::image_to_bytes;
    use rock_core::suite;
    use rock_supervisor::{ArtifactStore, Supervisor, SupervisorOptions};

    #[test]
    fn identical_runs_fingerprint_identically_and_distinctly_from_none() {
        let bytes =
            image_to_bytes(&suite::streams_example().compile().expect("compiles").stripped_image());
        let dir = std::env::temp_dir().join(format!("rock-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let run = |tag: &str| {
            let store = ArtifactStore::open(dir.join(tag)).unwrap();
            let sup = Supervisor::new(
                rock_core::RockConfig::paper(),
                store,
                SupervisorOptions::default(),
            );
            sup.run_job("fp", &bytes)
        };
        let a = run("a");
        let b = run("b");
        let fa = result_fp(&a.output);
        let fb = result_fp(&b.output);
        assert_eq!(fa, fb, "equal results must fingerprint equally");
        assert_ne!(fa, result_fp(&rock_supervisor::JobOutput::None));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
