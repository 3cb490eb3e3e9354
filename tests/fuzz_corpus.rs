//! Replay the committed fuzz corpus (`tests/corpus/*.mp`) through the
//! differential oracle as ordinary regression tests.
//!
//! Each file is a minimized program that once exposed (or guards against)
//! a cross-config divergence. The files are the corpus: it grows by
//! copying a shrunk failing program from `corm fuzz --out DIR` here.

use std::path::PathBuf;

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing corpus dir {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "mp"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_committed_and_nonempty() {
    let n = corpus_files().len();
    assert!(n >= 10, "expected >= 10 corpus programs, found {n}");
}

#[test]
fn corpus_passes_differential_oracle() {
    let files = corpus_files();
    assert!(!files.is_empty());
    for path in files {
        let src = std::fs::read_to_string(&path).expect("read corpus file");
        if let Err(f) = corm_fuzz::check(&src, &corm_fuzz::Matrix::FUZZ) {
            panic!("corpus program {} failed the oracle: {f}", path.display());
        }
    }
}

#[test]
fn corpus_provenance_comments_match_the_analysis() {
    // Every committed entry is self-explaining: its `// provenance:`
    // lines are the analysis verdicts of its call sites, as the compiler
    // reaches them today. A verdict that moves must move here too.
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).expect("read corpus file");
        let on_file: Vec<&str> =
            src.lines().filter_map(|l| l.strip_prefix("// provenance: ")).collect();
        let expected = corm_fuzz::oracle::site_provenance_digests(&src);
        assert_eq!(
            on_file,
            expected,
            "{}: provenance comments drifted from the analysis; expected:\n{}",
            path.display(),
            expected.iter().map(|l| format!("// provenance: {l}\n")).collect::<String>()
        );
    }
}
