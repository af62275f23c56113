//! Each workspace crate's `lib.rs` names its API with `pub use`; its modules are
//! private, so rustc's dead-code lint sees every `pub fn` that nothing calls,
//! and `#![warn(unreachable_pub)]` every `pub` item that the `pub use` list
//! does not reach (it asks for `pub(crate)`), called or not. A `pub` method on
//! a re-exported type that only its own crate calls is invisible to both: that
//! stays a grep job. A `pub mod` switches the lints off for everything inside
//! it, so the few that stay are listed here, each with the caller that imports
//! it by its path.

use std::fs;
use std::path::{Path, PathBuf};

/// `(crate directory, module)` pairs that stay `pub mod`.
const PUBLIC_MODULES: [(&str, &str); 6] = [
    // Imported by path in `benchmark/` and in workspace crates (the comment
    // on each `pub mod` names where).
    ("graph", "analysis"),
    ("graph", "generators"),
    ("netsim", "caps"),
    ("netsim", "wire"),
    // Already a facade: private submodules behind `pub use`.
    ("graph", "sequential"),
    // Imported by path in `benchmark/` and in `sweep_runner`.
    ("scenarios", "scaling"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_module_is_public_beyond_the_listed_six() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut unlisted = Vec::new();
    let mut seen = 0;
    for entry in fs::read_dir(&crates).unwrap() {
        let dir = entry.unwrap().path();
        let name = dir.file_name().unwrap().to_str().unwrap().to_string();
        let src = dir.join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        for file in files {
            let text = fs::read_to_string(&file).unwrap();
            for (i, line) in text.lines().enumerate() {
                let Some(rest) = line.trim_start().strip_prefix("pub mod ") else {
                    continue;
                };
                let module = rest.trim_end_matches([';', '{', ' ']);
                let listed =
                    file == src.join("lib.rs") && PUBLIC_MODULES.contains(&(name.as_str(), module));
                if listed {
                    seen += 1;
                } else {
                    unlisted.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        unlisted.is_empty(),
        "make these modules private and `pub use` what callers name from lib.rs:\n{}",
        unlisted.join("\n")
    );
    assert_eq!(
        seen,
        PUBLIC_MODULES.len(),
        "a listed module is no longer public"
    );
}
