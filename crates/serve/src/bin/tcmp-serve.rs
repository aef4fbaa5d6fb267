//! The `tcmp-serve` daemon: queued figure campaigns over a Unix
//! socket, with journal-backed crash resume.
//!
//! ```text
//! tcmp-serve --root DIR [--socket PATH] [--jobs N] [--queue-bound N]
//!            [--warm-cycles N] [--checkpoint-bytes N]
//! ```
//!
//! Crash-only: stopping is crashing, starting is recovering. SIGTERM
//! and SIGINT take their default action, as SIGKILL does; restart with
//! the same `--root` and every interrupted campaign resumes
//! bit-identically, re-running at most the `--jobs` cells in flight.

#![forbid(unsafe_code)]

#[cfg(unix)]
fn main() {
    unix::main()
}

#[cfg(not(unix))]
fn main() {
    eprintln!("tcmp-serve requires Unix domain sockets; this platform has none");
    std::process::exit(2);
}

#[cfg(unix)]
mod unix {
    use std::path::PathBuf;
    use std::sync::atomic::AtomicBool;

    use tcmp_serve::daemon;
    use tcmp_serve::service::{ServeConfig, ServiceHandle};

    fn usage() -> ! {
        eprintln!(
            "usage: tcmp-serve --root DIR [--socket PATH] [--jobs N] [--queue-bound N] \
             [--warm-cycles N] [--checkpoint-bytes N]"
        );
        std::process::exit(2)
    }

    pub fn main() {
        let mut cfg = ServeConfig::default();
        let mut socket: Option<PathBuf> = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next().unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    usage()
                })
            };
            match arg.as_str() {
                "--root" => cfg.root = PathBuf::from(value("--root")),
                "--socket" => socket = Some(PathBuf::from(value("--socket"))),
                "--jobs" => cfg.jobs = parse(&value("--jobs"), "--jobs"),
                "--queue-bound" => {
                    cfg.queue_bound = parse(&value("--queue-bound"), "--queue-bound")
                }
                "--warm-cycles" => {
                    cfg.warm_cycles = parse(&value("--warm-cycles"), "--warm-cycles")
                }
                "--checkpoint-bytes" => {
                    cfg.checkpoint_byte_budget =
                        parse(&value("--checkpoint-bytes"), "--checkpoint-bytes")
                }
                "--help" | "-h" => usage(),
                other => {
                    eprintln!("unknown flag {other}");
                    usage()
                }
            }
        }
        let socket = socket.unwrap_or_else(|| cfg.root.join("serve.sock"));

        let handle = match ServiceHandle::start(cfg.clone()) {
            Ok(h) => h,
            Err(e) => {
                eprintln!(
                    "tcmp-serve: cannot start service at {}: {e}",
                    cfg.root.display()
                );
                std::process::exit(1);
            }
        };
        eprintln!(
            "tcmp-serve: listening on {} (root {}, {} workers, queue bound {}, warm-start {})",
            socket.display(),
            cfg.root.display(),
            cfg.jobs.max(1),
            cfg.queue_bound,
            if cfg.warm_cycles > 0 {
                format!(
                    "{} cycles, checkpoints in {}",
                    cfg.warm_cycles,
                    cfg.root.join("checkpoints").display()
                )
            } else {
                "off".to_string()
            }
        );
        // Nothing sets the stop flag: the daemon ends by being killed.
        if let Err(e) = daemon::serve(handle.service(), &socket, &AtomicBool::new(false)) {
            eprintln!("tcmp-serve: {e}");
        }
        std::process::exit(1);
    }

    fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> T {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} {v}: not a valid number");
            usage()
        })
    }
}
