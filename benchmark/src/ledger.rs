//! `run` and `trace`: every workload, one child process each, one ledger file
//! headed by the facts of the machine that measured it.

use crate::spec::WORKLOADS;
use overlay_networks::scenarios::scaling::MachineInfo;
use overlay_networks::scenarios::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `benchmark/out/`, where ledgers go unless `--out` says otherwise.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The first line of `program args…`, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Wall-clocks mean nothing without these, so they head every ledger.
fn machine_facts() -> Json {
    let m = MachineInfo::capture();
    Json::obj(vec![
        ("cpu_model", Json::Str(cpu_model())),
        ("nproc", Json::UInt(m.available_parallelism as u64)),
        ("os", Json::Str(m.os.into())),
        ("arch", Json::Str(m.arch.into())),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rayon_num_threads",
            m.rayon_env.map_or(Json::Null, Json::Str),
        ),
        ("rayon_workers", Json::UInt(m.workers as u64)),
        (
            "network",
            Json::Str("construct-tcp2 crossed the host's loopback interface, not a link".into()),
        ),
        (
            "parallelism",
            Json::Str("simulator workloads pin ParallelismConfig::serial()".into()),
        ),
    ])
}

/// Runs every workload in a child process of this binary, one at a time,
/// and writes the ledger. Returns whether every workload was correct.
pub fn run_all(
    trace: bool,
    seed: u64,
    seconds: f64,
    quick: bool,
    out: Option<&Path>,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rows = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if quick {
            child.arg("--quick");
        }
        let spans = dir.join(format!("spans-{}.json", w.name));
        if trace {
            child.arg("--spans").arg(&spans);
        }
        eprintln!("{} ...", w.name);
        let output = child
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {} run: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        for line in stdout.lines().filter(|l| l.starts_with('#')) {
            println!("{line}");
        }
        let detail = stdout
            .lines()
            .find_map(|l| l.strip_prefix("detail "))
            .ok_or_else(|| format!("the {} run printed no result", w.name))?;
        let mut detail = Json::parse(detail)?;
        all_correct &= output.status.success();
        if let Json::Obj(fields) = &mut detail {
            fields.insert(0, ("why".into(), Json::Str(w.why.into())));
            fields.insert(1, ("gated".into(), Json::Bool(w.gated)));
            if trace {
                let text = std::fs::read_to_string(&spans).map_err(|e| e.to_string())?;
                if let Json::Obj(doc) = Json::parse(&text)? {
                    fields.extend(doc.into_iter().filter(|(k, _)| k == "spans"));
                }
                let _ = std::fs::remove_file(&spans);
            }
        }
        rows.push((w.name.to_string(), detail));
    }
    let ledger = Json::obj(vec![
        (
            "kind",
            Json::Str(if trace { "trace" } else { "run" }.into()),
        ),
        ("machine", machine_facts()),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Num(seconds)),
        (
            "reference_nominal_s",
            Json::Num(crate::reference::NOMINAL_S),
        ),
        ("quick", Json::Bool(quick)),
        ("workloads", Json::Obj(rows)),
    ]);
    let path = out.map_or_else(
        || dir.join(if trace { "trace.json" } else { "BENCH.json" }),
        Path::to_path_buf,
    );
    std::fs::write(&path, ledger.render_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}
