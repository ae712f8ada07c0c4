//! Byte goldens for every `repro --quick` artifact.
//!
//! Each artifact's stdout must match `tests/golden/quick/<artifact>.stdout`
//! byte for byte. The JSON files written by the `trace` and `metrics`
//! artifacts (several MB each) are pinned by their byte length and 64-bit
//! FNV-1a digest in `<file>.fnv1a`. The check runs once with
//! `VF_THREADS=1` and once at the default thread count, since results are
//! a pure function of (seed, config) whatever the parallelism.
//!
//! A change that alters the model on purpose regenerates the goldens with
//! `VF_BLESS=1 cargo test --release -p vf-bench --test quick_goldens` and
//! says why in CHANGES.md.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every artifact `repro` knows, in its usage order (`all` is their union).
const ARTIFACTS: [&str; 23] = [
    "fig3",
    "fig4",
    "fig5",
    "table1",
    "portability",
    "xdma-irq-ablation",
    "virtio-features",
    "bypass",
    "devtypes",
    "csum-offload",
    "noise-sweep",
    "pipeline",
    "deployment",
    "card-memory",
    "pmd",
    "pmd-crossover",
    "packed",
    "mq",
    "ooo",
    "tenants",
    "blk",
    "trace",
    "metrics",
];

/// Files an artifact writes into its working directory.
fn written_files(artifact: &str) -> &'static [&'static str] {
    match artifact {
        "trace" => &["trace.json"],
        "metrics" => &["metrics.json"],
        _ => &[],
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/quick")
}

/// 1-based number of the first line where `a` and `b` differ.
fn first_differing_line(a: &[u8], b: &[u8]) -> usize {
    let at = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    1 + a[..at].iter().filter(|&&c| c == b'\n').count()
}

/// Run every artifact with `VF_THREADS` set to `threads` (unset for
/// `None`) and compare its outputs with the goldens, or rewrite the
/// goldens when `bless` is set.
fn check_all(label: &str, threads: Option<&str>, bless: bool) {
    let golden = golden_dir();
    if bless {
        fs::create_dir_all(&golden).expect("creating golden dir");
    }
    let mut mismatches = Vec::new();
    for artifact in ARTIFACTS {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("quick_goldens")
            .join(label)
            .join(artifact);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("creating run dir");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(["--quick", artifact]).current_dir(&dir);
        match threads {
            Some(n) => cmd.env("VF_THREADS", n),
            None => cmd.env_remove("VF_THREADS"),
        };
        let out = cmd.output().expect("spawning repro");
        assert!(
            out.status.success(),
            "repro --quick {artifact} ({label}) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut produced = vec![(format!("{artifact}.stdout"), out.stdout)];
        for file in written_files(artifact) {
            let bytes = fs::read(dir.join(file)).expect("reading written file");
            let digest = format!("{} {:016x}\n", bytes.len(), fnv1a64(&bytes));
            produced.push((format!("{file}.fnv1a"), digest.into_bytes()));
        }
        let _ = fs::remove_dir_all(&dir);
        for (name, bytes) in produced {
            let path = golden.join(&name);
            if bless {
                fs::write(&path, &bytes).expect("writing golden");
                continue;
            }
            match fs::read(&path) {
                Ok(want) if want == bytes => {}
                Ok(want) => mismatches.push(format!(
                    "{artifact}: {name} differs from its golden from line {}",
                    first_differing_line(&want, &bytes)
                )),
                Err(e) => mismatches.push(format!("{artifact}: golden {name} unreadable: {e}")),
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "repro --quick output changed ({label}):\n  {}\n\
         (a deliberate model change re-blesses with VF_BLESS=1 and says why in CHANGES.md)",
        mismatches.join("\n  ")
    );
}

/// One test, so the goldens are never written and read at once: under
/// `VF_BLESS=1` the one-thread pass rewrites them and the default-thread
/// pass checks the fresh set.
#[test]
fn quick_artifacts_match_goldens_at_one_and_default_threads() {
    let bless = std::env::var("VF_BLESS").is_ok_and(|v| v == "1");
    check_all("one_thread", Some("1"), bless);
    check_all("default_threads", None, false);
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
