//! The paper, checked: every experiment of `ptp_bench::paper` runs, every
//! claim it states must hold, and its rendered output must equal the
//! committed golden `paper/<name>.txt` byte for byte. When an output change
//! is meant, the failing test leaves the new output under cargo's
//! `CARGO_TARGET_TMPDIR` for review; copy it over the golden.

use ptp_bench::paper::EXPERIMENTS;
use std::collections::BTreeSet;
use std::path::Path;

const GOLDENS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/paper");

#[test]
fn every_claim_holds_and_every_output_matches_its_golden() {
    let mut failures = Vec::new();
    for e in EXPERIMENTS {
        let out = (e.run)();
        let names: BTreeSet<&str> = out.claims.iter().map(|c| c.name).collect();
        if out.claims.is_empty() || names.len() != out.claims.len() {
            failures.push(format!("{}: no claims, or two claims share a name", e.name));
        }
        failures.extend(out.failed().map(|c| format!("{}/{} fails: {}", e.name, c.name, c.detail)));

        let file = format!("{}.txt", e.name);
        let golden = std::fs::read_to_string(Path::new(GOLDENS).join(&file)).unwrap_or_default();
        let rendered = out.render();
        if rendered != golden {
            let line = rendered.lines().zip(golden.lines()).take_while(|(a, b)| a == b).count();
            let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper");
            std::fs::create_dir_all(&fresh).unwrap();
            std::fs::write(fresh.join(&file), &rendered).unwrap();
            failures.push(format!(
                "{}: output differs from paper/{file} from line {}; new output in {}",
                e.name,
                line + 1,
                fresh.join(&file).display()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn the_goldens_are_exactly_the_registry() {
    let registry: BTreeSet<String> =
        EXPERIMENTS.iter().map(|e| format!("{}.txt", e.name)).collect();
    assert_eq!(registry.len(), EXPERIMENTS.len(), "two experiments share a name");
    let goldens: BTreeSet<String> = std::fs::read_dir(GOLDENS)
        .unwrap()
        .map(|f| f.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(goldens, registry);
}
