//! The `casperd` daemon: bind a TCP port and serve the line protocol.
//!
//! ```text
//! casperd [--addr 127.0.0.1:7717] [--cache-entries N] [--cache-bytes N]
//! ```

use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;

use casper::CasperConfig;
use casperd::{serve, TranslationService};

struct Options {
    addr: String,
    cache_entries: usize,
    cache_bytes: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7717".to_string(),
        cache_entries: 256,
        cache_bytes: 64 << 20,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--cache-entries" => {
                opts.cache_entries = value("--cache-entries")?
                    .parse()
                    .map_err(|_| "--cache-entries needs an integer".to_string())?
            }
            "--cache-bytes" => {
                opts.cache_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|_| "--cache-bytes needs an integer".to_string())?
            }
            "--help" | "-h" => {
                println!("usage: casperd [--addr HOST:PORT] [--cache-entries N] [--cache-bytes N]");
                exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("casperd: {message}");
            exit(2);
        }
    };
    let service = Arc::new(TranslationService::new(
        CasperConfig::default(),
        opts.cache_entries,
        opts.cache_bytes,
    ));
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("casperd: cannot bind {}: {err}", opts.addr);
            exit(1);
        }
    };
    eprintln!(
        "casperd: serving on {} (cache: {} entries / {} bytes)",
        opts.addr, opts.cache_entries, opts.cache_bytes,
    );
    if let Err(err) = serve(listener, service) {
        eprintln!("casperd: accept loop failed: {err}");
        exit(1);
    }
}
