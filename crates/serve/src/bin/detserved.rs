//! `detserved` — the persistent analysis daemon.
//!
//! ```text
//! detserved --listen 127.0.0.1:0 [--cache-capacity N] [--cache-dir DIR]
//!           [--mem-budget CELLS]
//! detserved --stdin [same options]
//! ```
//!
//! `--listen` serves the line-JSON protocol over TCP (port `0` picks a
//! free port; the bound address is printed to stdout as
//! `detserved: listening on HOST:PORT` before the first accept, so
//! scripts can parse it). `--stdin` serves exactly one session over the
//! process's stdin/stdout pipe — handy for tests and for editors that
//! prefer to own the transport. Each analyze request chooses its own PTA
//! mode (`inject`, `shortcuts`, `spec_depth`); there is no server-wide
//! default.
//!
//! Exit codes: 0 after a clean shutdown request (or stdin EOF), 2 on
//! usage errors, 1 on fatal I/O errors.

#![forbid(unsafe_code)]

use mujs_serve::{CacheConfig, ServeOptions, Server};
use std::net::TcpListener;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: detserved (--listen ADDR | --stdin) [options]\n\
         \n\
         transport:\n\
         \x20 --listen ADDR        serve TCP on ADDR (port 0 = pick a free port;\n\
         \x20                      the bound address is printed to stdout)\n\
         \x20 --stdin              serve one session over stdin/stdout\n\
         \n\
         options:\n\
         \x20 --cache-capacity N   in-memory stage-cache entries (default 256)\n\
         \x20 --cache-dir DIR      persist stage artifacts to DIR (survives restarts)\n\
         \x20 --mem-budget CELLS   server-wide declared-memory budget (admission\n\
         \x20                      control; oversized requests run degraded)\n\
         \n\
         exit codes: 0 clean shutdown or EOF; 1 fatal I/O error; 2 usage error"
    );
    ExitCode::from(2)
}

enum Transport {
    Listen(String),
    Stdin,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut transport = None;
    let mut cache = CacheConfig::default();
    let mut mem_budget = None;

    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--listen" => transport = Some(Transport::Listen(value("--listen")?)),
                "--stdin" => transport = Some(Transport::Stdin),
                "--cache-capacity" => {
                    cache.capacity = value("--cache-capacity")?
                        .parse()
                        .map_err(|e| format!("--cache-capacity: {e}"))?;
                }
                "--cache-dir" => cache.disk_dir = Some(value("--cache-dir")?.into()),
                "--mem-budget" => {
                    mem_budget = Some(
                        value("--mem-budget")?
                            .parse()
                            .map_err(|e| format!("--mem-budget: {e}"))?,
                    );
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("detserved: {e}");
            return usage();
        }
    }

    let Some(transport) = transport else {
        eprintln!("detserved: pick a transport (--listen or --stdin)");
        return usage();
    };

    let server = Server::new(ServeOptions {
        cache,
        mem_budget_cells: mem_budget,
    });

    let outcome = match transport {
        // Requests run on the session thread, with a parser thread's stack.
        Transport::Stdin => std::thread::scope(|s| {
            let session = std::thread::Builder::new()
                .stack_size(mujs_syntax::PARSER_STACK_BYTES)
                .spawn_scoped(s, || {
                    server.handle_stream(std::io::stdin().lock(), std::io::stdout().lock())
                })?;
            let outcome = session
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            outcome.map(|_| ())
        }),
        Transport::Listen(addr) => TcpListener::bind(&addr).and_then(|listener| {
            let bound = listener.local_addr()?;
            use std::io::Write;
            println!("detserved: listening on {bound}");
            std::io::stdout().flush()?;
            server.serve(listener)
        }),
    };

    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("detserved: {e}");
            ExitCode::FAILURE
        }
    }
}
