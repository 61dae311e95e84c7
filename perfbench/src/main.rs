//! The benchmark's worker binary; `run.py` drives it.  Every flag shown is
//! required.
//!
//! ```text
//! perfbench probe --workload W --seed N
//!     the set-up probe: builds W's inputs, verifies one trivial program and
//!     prints `ready` (run.py times it from spawn to that line)
//! perfbench pass --workload W --seed N --mode plain|traced|fanout
//!     one pass over W's corpus in this process; one JSON result line
//! perfbench daemon --fluxd PATH --seed N --seconds S --setup-probes P
//!     the daemon-mixed client loop against a spawned fluxd, with one verify
//!     request in flight per usable CPU; one JSON line
//! ```

use perfbench::pass::{self, PassMode, Workload};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<String, String> {
    let mut args = std::env::args().skip(1);
    let command = args
        .next()
        .ok_or("usage: perfbench probe|pass|daemon --flag value...")?;
    let mut flags: HashMap<String, String> = HashMap::new();
    while let Some(key) = args.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = args.next().ok_or_else(|| format!("{key} needs a value"))?;
        flags.insert(name.to_owned(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("{command} needs --{name}"))
    };
    let parse = |name: &str| -> Result<f64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} takes a number"))
    };
    let seed: u64 = get("seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_owned())?;
    let workload = || {
        let name = get("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown --workload {name:?}"))
    };
    match command.as_str() {
        "probe" => {
            if !pass::probe(workload()?, seed) {
                return Err("the set-up probe did not verify".into());
            }
            Ok("ready".into())
        }
        "pass" => {
            let mode = match get("mode")? {
                "plain" => PassMode::Plain,
                "traced" => PassMode::Traced,
                "fanout" => PassMode::Fanout,
                other => return Err(format!("unknown --mode {other:?}")),
            };
            let workload = workload()?;
            let requests = pass::corpus(workload, seed);
            Ok(pass::run(workload, &requests, mode))
        }
        "daemon" => perfbench::daemon::run(
            Path::new(get("fluxd")?),
            seed,
            parse("seconds")?,
            parse("setup-probes")? as usize,
        )
        .map_err(|e| format!("daemon-mixed failed: {e}")),
        other => Err(format!("unknown command {other:?}")),
    }
}
