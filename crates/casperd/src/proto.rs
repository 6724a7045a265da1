//! The `casperd` line protocol and thread-per-connection server.
//!
//! Requests are single header lines, optionally followed by a sized
//! body; responses mirror the shape. One connection serves any number
//! of requests in sequence.
//!
//! ```text
//! client: TRANSLATE <nbytes>\n<nbytes of source>
//! server: OK <nbytes> served=<cold|hit|coalesced> gen=<g>\n<nbytes of payload>
//!
//! client: STATS\n
//! server: STATS hits=<h> misses=<m> coalesced=<c> evictions=<e>
//!         entries=<n> bytes=<b> gen=<g> exec_submitted=<t>
//!         exec_steals=<s> exec_max_queue_depth=<d> exec_busy_ns=<ns>\n
//!         (one line; split here for readability)
//!
//! client: CONFIG workers=<n>\n
//! server: OK reconfigured gen=<g>\n        (bumps the cache generation)
//!
//! client: PING\n
//! server: PONG\n
//!
//! server: ERR <message>\n                  (malformed requests; a body
//!                                          cut short by EOF gets
//!                                          `ERR truncated frame`)
//! ```
//!
//! The executor counters in `STATS` come from the process-wide
//! [`casper_runtime::global`] pool the pipeline runs on.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use casper::CasperConfig;

use crate::TranslationService;

/// Largest accepted source program. Guards the sized-body read against
/// absurd headers, not a tuning knob.
const MAX_SOURCE_BYTES: u64 = 16 << 20;

/// Serve one connection until EOF or a fatal I/O error.
fn serve_connection(stream: TcpStream, service: &TranslationService) -> std::io::Result<()> {
    // Responses are a header write followed by a payload write; without
    // nodelay, Nagle holds the second packet hostage to the client's
    // delayed ACK and a microsecond cache hit costs tens of ms.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        let request = line.trim_end_matches(['\r', '\n']);
        if request.is_empty() {
            continue;
        }
        if request == "PING" {
            writer.write_all(b"PONG\n")?;
        } else if request == "STATS" {
            let cache = &service.cache;
            let exec = casper_runtime::global().stats();
            let reply = format!(
                "STATS hits={} misses={} coalesced={} evictions={} entries={} bytes={} gen={} \
                 exec_submitted={} exec_steals={} exec_max_queue_depth={} exec_busy_ns={}\n",
                cache.hits(),
                cache.misses(),
                cache.coalesced(),
                cache.evictions(),
                cache.len(),
                cache.bytes(),
                service.generation(),
                exec.submitted,
                exec.steals,
                exec.max_queue_depth,
                exec.worker_busy_ns,
            );
            writer.write_all(reply.as_bytes())?;
        } else if let Some(arg) = request.strip_prefix("CONFIG ") {
            match arg.strip_prefix("workers=").and_then(|w| w.parse().ok()) {
                Some(workers) if workers >= 1usize => {
                    service.set_config(CasperConfig::default().with_parallelism(workers));
                    writer.write_all(
                        format!("OK reconfigured gen={}\n", service.generation()).as_bytes(),
                    )?;
                }
                _ => writer.write_all(b"ERR usage: CONFIG workers=<n>\n")?,
            }
        } else if let Some(arg) = request.strip_prefix("TRANSLATE ") {
            let Ok(nbytes) = arg.parse::<u64>() else {
                writer.write_all(b"ERR usage: TRANSLATE <nbytes>\n")?;
                continue;
            };
            if nbytes > MAX_SOURCE_BYTES {
                writer.write_all(b"ERR source too large\n")?;
                continue;
            }
            // Read no more than the body that arrives: buffer only what
            // the client actually sends, not what its header claims.
            let mut source = Vec::new();
            (&mut reader).take(nbytes).read_to_end(&mut source)?;
            if source.len() as u64 != nbytes {
                // The client closed its write half mid-body; nothing
                // more can follow on this connection.
                writer.write_all(b"ERR truncated frame\n")?;
                writer.flush()?;
                return Ok(());
            }
            let Ok(source) = String::from_utf8(source) else {
                writer.write_all(b"ERR source is not UTF-8\n")?;
                continue;
            };
            let response = service.translate(&source);
            let payload = response.value.payload.as_bytes();
            let header = format!(
                "OK {} served={} gen={}\n",
                payload.len(),
                response.served.name(),
                response.generation,
            );
            writer.write_all(header.as_bytes())?;
            writer.write_all(payload)?;
        } else {
            writer.write_all(b"ERR unknown request\n")?;
        }
        writer.flush()?;
    }
}

/// Accept connections forever, one thread per connection — translation
/// wall time dwarfs thread spawn, and the persistent executor (not the
/// connection thread) carries the parallel work.
pub fn serve(listener: TcpListener, service: Arc<TranslationService>) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &service);
        });
    }
    Ok(())
}

/// Bind an ephemeral loopback port and serve in a background thread —
/// how the benchmark and the protocol tests run the daemon in-process.
/// The listener thread is detached; it dies with the process.
pub fn spawn_server(service: Arc<TranslationService>) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    std::thread::spawn(move || {
        let _ = serve(listener, service);
    });
    Ok(addr)
}

/// A minimal blocking client for tests and the benchmark.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One `TRANSLATE` reply.
pub struct TranslateReply {
    pub payload: Vec<u8>,
    /// `"cold"`, `"hit"`, or `"coalesced"`.
    pub served: String,
    pub generation: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Round-trip one source program.
    pub fn translate(&mut self, source: &str) -> std::io::Result<TranslateReply> {
        let header = format!("TRANSLATE {}\n", source.len());
        self.writer.write_all(header.as_bytes())?;
        self.writer.write_all(source.as_bytes())?;
        self.writer.flush()?;
        let reply = self.read_line()?;
        let mut parts = reply.split(' ');
        let (Some("OK"), Some(nbytes)) = (parts.next(), parts.next()) else {
            return Err(std::io::Error::other(format!("bad reply: {reply}")));
        };
        let nbytes: usize = nbytes
            .parse()
            .map_err(|_| std::io::Error::other(format!("bad length in: {reply}")))?;
        let mut served = String::new();
        let mut generation = 0u64;
        for part in parts {
            if let Some(s) = part.strip_prefix("served=") {
                served = s.to_string();
            } else if let Some(g) = part.strip_prefix("gen=") {
                generation = g.parse().unwrap_or(0);
            }
        }
        let mut payload = vec![0u8; nbytes];
        self.reader.read_exact(&mut payload)?;
        Ok(TranslateReply {
            payload,
            served,
            generation,
        })
    }

    /// Round-trip a `STATS` request; returns the raw key=value line.
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.writer.write_all(b"STATS\n")?;
        self.writer.flush()?;
        self.read_line()
    }

    /// Round-trip a `PING`.
    pub fn ping(&mut self) -> std::io::Result<bool> {
        self.writer.write_all(b"PING\n")?;
        self.writer.flush()?;
        Ok(self.read_line()? == "PONG")
    }

    /// Reconfigure the service's worker count (bumps the generation).
    pub fn set_workers(&mut self, workers: usize) -> std::io::Result<String> {
        self.writer
            .write_all(format!("CONFIG workers={workers}\n").as_bytes())?;
        self.writer.flush()?;
        self.read_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper::TranslationReport;
    use std::sync::Arc;

    fn echo_service() -> Arc<TranslationService> {
        Arc::new(TranslationService::with_translator(
            CasperConfig::default().with_parallelism(1),
            16,
            1 << 20,
            Box::new(|src, config| {
                Arc::new(TranslationReport {
                    fragments: Vec::new(),
                    wall_time: std::time::Duration::from_nanos(src.len() as u64),
                    runtime_mode: config.runtime.name(),
                    runtime_stats: Default::default(),
                })
            }),
        ))
    }

    #[test]
    fn protocol_round_trips() {
        let addr = spawn_server(echo_service()).unwrap();
        let mut client = Client::connect(addr).unwrap();
        assert!(client.ping().unwrap());

        let cold = client.translate("fn f() -> int { return 1; }").unwrap();
        assert_eq!(cold.served, "cold");
        let hot = client.translate("fn f() -> int { return 1; }").unwrap();
        assert_eq!(hot.served, "hit");
        assert_eq!(cold.payload, hot.payload, "hit is byte-identical to cold");

        let stats = client.stats().unwrap();
        assert!(stats.starts_with("STATS "), "{stats}");
        assert!(stats.contains("hits=1"), "{stats}");
        assert!(stats.contains("exec_submitted="), "{stats}");

        let reconf = client.set_workers(2).unwrap();
        assert!(reconf.starts_with("OK reconfigured gen=1"), "{reconf}");
        let cold_again = client.translate("fn f() -> int { return 1; }").unwrap();
        assert_eq!(cold_again.served, "cold", "generation bump invalidates");
        assert_eq!(cold_again.generation, 1);
    }

    #[test]
    fn malformed_requests_get_errors_and_do_not_kill_the_connection() {
        let addr = spawn_server(echo_service()).unwrap();
        let mut client = Client::connect(addr).unwrap();
        client.writer.write_all(b"NONSENSE\n").unwrap();
        client.writer.flush().unwrap();
        assert!(client.read_line().unwrap().starts_with("ERR"));
        client.writer.write_all(b"TRANSLATE abc\n").unwrap();
        client.writer.flush().unwrap();
        assert!(client.read_line().unwrap().starts_with("ERR"));
        assert!(client.ping().unwrap(), "connection still alive");
    }

    /// A body shorter than its header claims gets a typed error, not a
    /// silent hang-up, and the daemon keeps serving new connections.
    #[test]
    fn truncated_body_gets_an_error_and_the_daemon_serves_on() {
        let addr = spawn_server(echo_service()).unwrap();
        let mut client = Client::connect(addr).unwrap();
        client
            .writer
            .write_all(b"TRANSLATE 1000\n0123456789")
            .unwrap();
        client.writer.flush().unwrap();
        client.writer.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(client.read_line().unwrap(), "ERR truncated frame");

        let mut fresh = Client::connect(addr).unwrap();
        let reply = fresh.translate("fn f() -> int { return 1; }").unwrap();
        assert_eq!(reply.served, "cold");
    }
}
