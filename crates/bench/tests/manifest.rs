//! Every experiment binary opens its trace with a dut-obs run
//! manifest named after itself, so a trace or a results CSV can be
//! tied to the experiment and configuration that produced it.

use std::path::Path;

#[test]
fn every_experiment_binary_emits_its_manifest() {
    let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut checked = 0;
    for entry in std::fs::read_dir(&bins).expect("read src/bin") {
        let path = entry.expect("read src/bin entry").path();
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("UTF-8 file name");
        let source = std::fs::read_to_string(&path).expect("read binary source");
        let call = format!(".emit_manifest(\"{stem}\")");
        assert!(
            source.contains(&call),
            "{} never calls `{call}`",
            path.display()
        );
        checked += 1;
    }
    assert!(
        checked > 0,
        "no experiment binaries under {}",
        bins.display()
    );
}
