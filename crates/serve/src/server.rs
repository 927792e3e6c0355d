//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Each request is one flat JSON object on one line; each response is
//! one JSON object on one line, `{"ok":1,...}` on success and
//! `{"ok":0,"error":"..."}` on failure. The protocol is deliberately
//! session-oriented and sequential — requests on a connection are
//! served in order against one shared [`Service`], so a tenant's
//! submit → tick → resume exchange reads like the in-process API.
//!
//! [`handle_line`] is the whole protocol; the TCP listener is a thin
//! loop around it, which is why the protocol tests need no sockets and
//! the socket test only checks framing.
//!
//! # Operations
//!
//! | op          | fields                                             |
//! |-------------|----------------------------------------------------|
//! | `submit`    | `tenant name source entry args results engine fuel max_yields opt chaos` |
//! | `resume`    | `id reply`                                         |
//! | `tick`      | `quanta` (default 1)                               |
//! | `poll`      | `id`                                               |
//! | `engine`    | `id engine` — migrate a parked thread              |
//! | `awaiting`  | —                                                  |
//! | `stats`     | —                                                  |
//! | `metrics`   | `timing` (0/1) — registry JSON, escaped            |
//! | `events`    | — event log, escaped                               |
//! | `shutdown`  | — acknowledge and stop the server                  |

use crate::json::{get, parse_object, JsonValue};
use crate::service::{Service, SubmitReq, ThreadState};
use cmm_obs::json_escape;
use cmm_snap::EngineId;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

/// The longest request line the server reads, in bytes. A longer line
/// is answered with an error line and its connection is closed.
pub const MAX_LINE: usize = 1 << 20;

/// How long the server waits before accepting again after a failed
/// accept.
pub const ACCEPT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(10);

/// Handles one request line against the service. Returns the response
/// line (no trailing newline) and whether the server should shut down.
pub fn handle_line(svc: &mut Service, line: &str) -> (String, bool) {
    match dispatch(svc, line) {
        Ok(Reply::Body(body)) => (ok_line(&body), false),
        Ok(Reply::Shutdown) => (ok_line(""), true),
        Err(e) => (
            format!("{{\"ok\":0,\"error\":\"{}\"}}", json_escape(&e)),
            false,
        ),
    }
}

fn ok_line(body: &str) -> String {
    if body.is_empty() {
        "{\"ok\":1}".to_string()
    } else {
        format!("{{\"ok\":1,{body}}}")
    }
}

enum Reply {
    Body(String),
    Shutdown,
}

fn dispatch(svc: &mut Service, line: &str) -> Result<Reply, String> {
    let fields = parse_object(line)?;
    let op = str_field(&fields, "op")?;
    match op {
        "submit" => {
            let defaults = SubmitReq::default();
            let req = SubmitReq {
                tenant: opt_str(&fields, "tenant")?
                    .unwrap_or(&defaults.tenant)
                    .into(),
                name: opt_str(&fields, "name")?.unwrap_or(&defaults.name).into(),
                source: str_field(&fields, "source")?.into(),
                entry: opt_str(&fields, "entry")?.unwrap_or(&defaults.entry).into(),
                args: match get(&fields, "args") {
                    Some(JsonValue::Arr(a)) => a.clone(),
                    Some(_) => return Err("`args` must be an array of numbers".into()),
                    None => Vec::new(),
                },
                results: opt_num(&fields, "results")?.unwrap_or(defaults.results as u64) as usize,
                engine: match opt_str(&fields, "engine")? {
                    Some(name) => parse_engine(name)?,
                    None => defaults.engine,
                },
                fuel: opt_num(&fields, "fuel")?.unwrap_or(defaults.fuel),
                max_yields: opt_num(&fields, "max_yields")?.unwrap_or(defaults.max_yields),
                opt: opt_num(&fields, "opt")?.unwrap_or(1) != 0,
                chaos: opt_num(&fields, "chaos")?,
            };
            let id = svc.submit(req)?;
            Ok(Reply::Body(format!("\"id\":{id}")))
        }
        "resume" => {
            svc.resume(num_field(&fields, "id")?, num_field(&fields, "reply")?)?;
            Ok(Reply::Body(String::new()))
        }
        "tick" => {
            let quanta = opt_num(&fields, "quanta")?.unwrap_or(1).max(1);
            let (mut dispatched, mut completed, mut yielded, mut advance) = (0, 0, 0, 0u64);
            for _ in 0..quanta {
                let r = svc.tick();
                dispatched += r.dispatched;
                completed += r.completed;
                yielded += r.yielded;
                advance += r.advance;
                if r.dispatched == 0 {
                    break;
                }
            }
            Ok(Reply::Body(format!(
                "\"dispatched\":{dispatched},\"completed\":{completed},\
                 \"yielded\":{yielded},\"advance\":{advance}"
            )))
        }
        "poll" => {
            let id = num_field(&fields, "id")?;
            let v = svc.poll(id).ok_or_else(|| format!("no thread t{id}"))?;
            let (state, extra) = match &v.state {
                ThreadState::Runnable => ("runnable".to_string(), String::new()),
                ThreadState::AwaitingTenant { code } => {
                    ("awaiting".to_string(), format!(",\"code\":{code}"))
                }
                ThreadState::Done { outcome } => (
                    "done".to_string(),
                    format!(",\"outcome\":\"{}\"", json_escape(outcome)),
                ),
            };
            Ok(Reply::Body(format!(
                "\"id\":{},\"state\":\"{state}\"{extra},\"engine\":\"{}\",\
                 \"yields\":{},\"instructions\":{},\"fuel_remaining\":{},\
                 \"slices\":{},\"migrations\":{}",
                v.id,
                v.engine.name(),
                v.yields.len(),
                v.instructions,
                v.fuel_remaining,
                v.slices,
                v.migrations,
            )))
        }
        "engine" => {
            let id = num_field(&fields, "id")?;
            let engine = parse_engine(str_field(&fields, "engine")?)?;
            svc.set_engine(id, engine)?;
            Ok(Reply::Body(String::new()))
        }
        "awaiting" => {
            let awaiting = svc.awaiting();
            let ids: Vec<String> = awaiting.iter().map(|(id, _)| id.to_string()).collect();
            let codes: Vec<String> = awaiting.iter().map(|(_, c)| c.to_string()).collect();
            Ok(Reply::Body(format!(
                "\"ids\":[{}],\"codes\":[{}]",
                ids.join(","),
                codes.join(",")
            )))
        }
        "stats" => {
            let s = svc.stats();
            let (queue_wait, turnaround) = svc.latency_quantiles();
            Ok(Reply::Body(format!(
                "\"submitted\":{},\"completed\":{},\"yields\":{},\"resumes\":{},\
                 \"slices\":{},\"migrations\":{},\"parked\":{},\"parked_high_water\":{},\
                 \"quanta\":{},\"vclock\":{},\"instructions\":{},\
                 \"queue_wait_p50\":{},\"queue_wait_p99\":{},\
                 \"turnaround_p50\":{},\"turnaround_p99\":{}",
                s.submitted,
                s.completed,
                s.yields,
                s.resumes,
                s.slices,
                s.migrations,
                s.parked,
                s.parked_high_water,
                s.quanta,
                s.vclock,
                s.instructions,
                queue_wait.0,
                queue_wait.2,
                turnaround.0,
                turnaround.2,
            )))
        }
        "metrics" => {
            let timing = opt_num(&fields, "timing")?.unwrap_or(0) != 0;
            let reg = svc
                .registry()
                .ok_or("service was started without metrics")?;
            Ok(Reply::Body(format!(
                "\"metrics\":\"{}\"",
                json_escape(&reg.to_json(timing))
            )))
        }
        "events" => Ok(Reply::Body(format!(
            "\"events\":\"{}\"",
            json_escape(&svc.events_text())
        ))),
        "shutdown" => Ok(Reply::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn parse_engine(name: &str) -> Result<EngineId, String> {
    EngineId::parse(name)
}

fn str_field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Result<&'a str, String> {
    opt_str(fields, key)?.ok_or_else(|| format!("missing field `{key}`"))
}

fn opt_str<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Result<Option<&'a str>, String> {
    match get(fields, key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

fn num_field(fields: &[(String, JsonValue)], key: &str) -> Result<u64, String> {
    opt_num(fields, key)?.ok_or_else(|| format!("missing field `{key}`"))
}

fn opt_num(fields: &[(String, JsonValue)], key: &str) -> Result<Option<u64>, String> {
    match get(fields, key) {
        None => Ok(None),
        Some(v) => v
            .as_num()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

/// Serves the protocol on `listener` until a client sends `shutdown`.
/// Connections are handled sequentially — the service is a shared
/// single-threaded state machine by design (parallelism lives inside
/// [`Service::tick`], not across clients).
///
/// A failed read, UTF-8 decode or write ends only the connection it
/// happened on, and a failed accept is retried after [`ACCEPT_BACKOFF`];
/// per-request protocol errors go to the client as `{"ok":0,...}` lines
/// instead.
///
/// # Errors
///
/// None: every I/O failure is confined to its connection, and the
/// server returns `Ok` once a client sends `shutdown`.
pub fn serve_on(listener: TcpListener, mut svc: Service) -> std::io::Result<()> {
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                if serve_client(stream, &mut svc) {
                    break;
                }
            }
            // An accept error that persists (the process is out of file
            // descriptors) would otherwise make this loop a busy wait.
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
    Ok(())
}

/// Serves one connection until the client leaves, misbehaves or asks
/// for shutdown. Returns whether the server should stop.
fn serve_client(stream: TcpStream, svc: &mut Service) -> bool {
    let Ok(mut writer) = stream.try_clone() else {
        return false;
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return false,
            Ok(_) => {}
        }
        if buf.len() > MAX_LINE && buf.last() != Some(&b'\n') {
            let e = format!("request line longer than {MAX_LINE} bytes");
            let _ = writeln!(writer, "{{\"ok\":0,\"error\":\"{e}\"}}");
            return false;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            return false;
        };
        let line = line.strip_suffix('\n').unwrap_or(line);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = handle_line(svc, line);
        if writeln!(writer, "{response}").is_err() {
            return false;
        }
        if shutdown {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;

    const SRC: &str = "f(bits32 n) { yield(n | 1) also aborts; return (n + 1); }";

    fn roundtrip(svc: &mut Service, line: &str) -> String {
        let (response, _) = handle_line(svc, line);
        response
    }

    /// A whole session over the protocol: submit, drive to the yield,
    /// resume, drive to completion, poll the outcome.
    #[test]
    fn a_session_runs_end_to_end_over_the_protocol() {
        let mut svc = Service::new(ServeConfig {
            metrics: true,
            ..ServeConfig::default()
        });
        let r = roundtrip(
            &mut svc,
            &format!(
                "{{\"op\":\"submit\",\"tenant\":\"a\",\"source\":\"{}\",\"args\":[4]}}",
                json_escape(SRC)
            ),
        );
        assert_eq!(r, "{\"ok\":1,\"id\":0}", "{r}");
        let r = roundtrip(&mut svc, "{\"op\":\"tick\",\"quanta\":10}");
        assert!(r.contains("\"yielded\":1"), "{r}");
        let r = roundtrip(&mut svc, "{\"op\":\"awaiting\"}");
        assert_eq!(r, "{\"ok\":1,\"ids\":[0],\"codes\":[5]}");
        let r = roundtrip(&mut svc, "{\"op\":\"poll\",\"id\":0}");
        assert!(
            r.contains("\"state\":\"awaiting\"") && r.contains("\"code\":5"),
            "{r}"
        );
        let r = roundtrip(&mut svc, "{\"op\":\"resume\",\"id\":0,\"reply\":9}");
        assert_eq!(r, "{\"ok\":1}");
        let r = roundtrip(&mut svc, "{\"op\":\"tick\",\"quanta\":10}");
        assert!(r.contains("\"completed\":1"), "{r}");
        let r = roundtrip(&mut svc, "{\"op\":\"poll\",\"id\":0}");
        assert!(
            r.contains("\"state\":\"done\"") && r.contains("halt"),
            "{r}"
        );
        let r = roundtrip(&mut svc, "{\"op\":\"stats\"}");
        assert!(
            r.contains("\"completed\":1") && r.contains("\"yields\":1"),
            "{r}"
        );
        let r = roundtrip(&mut svc, "{\"op\":\"metrics\"}");
        assert!(r.contains("cmm_serve_requests_total"), "{r}");
        let r = roundtrip(&mut svc, "{\"op\":\"events\"}");
        assert!(r.contains("submit t0") && r.contains("yield t0"), "{r}");
    }

    /// Malformed requests and bad ops come back as error lines, never
    /// a panic or a dropped connection.
    #[test]
    fn protocol_errors_are_reported_in_band() {
        let mut svc = Service::new(ServeConfig::default());
        for bad in [
            "not json at all",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"submit\"}",
            "{\"op\":\"resume\",\"id\":99,\"reply\":0}",
            "{\"op\":\"poll\",\"id\":99}",
            "{\"op\":\"submit\",\"source\":\"f() { return; }\",\"engine\":\"jit\"}",
            "{\"op\":\"metrics\"}",
        ] {
            let r = roundtrip(&mut svc, bad);
            assert!(r.starts_with("{\"ok\":0,\"error\":\""), "{bad} -> {r}");
        }
    }

    /// Request lines mutated from a seed never panic the service. Each
    /// seed sends 30 lines, drawn from the ten request shapes and
    /// mutated by byte flips, inserted or removed punctuation and
    /// 20-digit numbers, to a two-worker service with metrics on and
    /// off. Every line is answered by exactly one `{"ok":…}` line, and
    /// a closing `tick` and `stats` still succeed.
    #[test]
    fn mutated_request_lines_never_panic_the_service() {
        use cmm_chaos::splitmix64;
        let shapes = [
            format!(
                "{{\"op\":\"submit\",\"tenant\":\"a\",\"name\":\"n\",\"source\":\"{}\",\
                 \"entry\":\"f\",\"args\":[4],\"results\":1,\"engine\":\"vm\",\"fuel\":5000,\
                 \"max_yields\":4,\"opt\":1,\"chaos\":3}}",
                json_escape(SRC)
            ),
            "{\"op\":\"resume\",\"id\":0,\"reply\":9}".into(),
            "{\"op\":\"tick\",\"quanta\":3}".into(),
            "{\"op\":\"poll\",\"id\":0}".into(),
            "{\"op\":\"engine\",\"id\":1,\"engine\":\"vm-fused\"}".into(),
            "{\"op\":\"awaiting\"}".into(),
            "{\"op\":\"stats\"}".into(),
            "{\"op\":\"metrics\",\"timing\":1}".into(),
            "{\"op\":\"events\"}".into(),
            "{\"op\":\"shutdown\"}".into(),
        ];
        let answered = |r: &str| {
            (r.starts_with("{\"ok\":1") || r.starts_with("{\"ok\":0,\"error\":\""))
                && r.ends_with('}')
                && !r.contains('\n')
        };
        for metrics in [false, true] {
            for seed in 0..64u64 {
                let mut rng = seed;
                let mut svc = Service::new(ServeConfig {
                    workers: 2,
                    metrics,
                    ..ServeConfig::default()
                });
                for _ in 0..30 {
                    let mut bytes = shapes[(splitmix64(&mut rng) % 10) as usize]
                        .clone()
                        .into_bytes();
                    for _ in 0..splitmix64(&mut rng) % 4 {
                        let at = (splitmix64(&mut rng) % (bytes.len() as u64 + 1)) as usize;
                        match splitmix64(&mut rng) % 4 {
                            0 if at < bytes.len() => bytes[at] = splitmix64(&mut rng) as u8,
                            1 => bytes.insert(at, b"{}[]\":,\\"[at % 8]),
                            2 => {
                                if let Some(p) =
                                    bytes[at..].iter().position(|b| b"{}[]\":,\\".contains(b))
                                {
                                    bytes.remove(at + p);
                                }
                            }
                            _ => {
                                // Replace the next number (or insert
                                // one): a 20-digit value, on either side
                                // of `u64::MAX`.
                                let n = 10u128.pow(19) + u128::from(splitmix64(&mut rng)) * 4;
                                let digit = bytes[at..].iter().position(u8::is_ascii_digit);
                                let start = digit.map_or(at, |p| at + p);
                                let run = bytes[start..].iter().take_while(|b| b.is_ascii_digit());
                                let end = start + run.count();
                                bytes.splice(start..end, n.to_string().into_bytes());
                            }
                        }
                    }
                    let line = String::from_utf8_lossy(&bytes);
                    let r = roundtrip(&mut svc, &line);
                    assert!(
                        answered(&r),
                        "seed {seed}, metrics {metrics}: {line} -> {r}"
                    );
                }
                for closing in ["{\"op\":\"tick\",\"quanta\":100}", "{\"op\":\"stats\"}"] {
                    let r = roundtrip(&mut svc, closing);
                    assert!(r.starts_with("{\"ok\":1,"), "seed {seed}: {closing} -> {r}");
                }
            }
        }
    }

    /// The real socket path: framing, sequencing, and shutdown over
    /// 127.0.0.1.
    #[test]
    fn the_tcp_loop_frames_and_shuts_down() {
        use std::io::{BufRead, BufReader, Write};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let svc = Service::new(ServeConfig::default());
        let server = std::thread::spawn(move || serve_on(listener, svc));

        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut say = |line: &str| {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response.trim_end().to_string()
        };
        let r = say(&format!(
            "{{\"op\":\"submit\",\"source\":\"{}\",\"args\":[2]}}",
            json_escape(SRC)
        ));
        assert_eq!(r, "{\"ok\":1,\"id\":0}");
        let r = say("{\"op\":\"tick\",\"quanta\":10}");
        assert!(r.contains("\"yielded\":1"), "{r}");
        assert_eq!(say("{\"op\":\"shutdown\"}"), "{\"ok\":1}");
        server.join().unwrap().expect("server exits cleanly");
    }

    /// Argument and result counts the calling convention cannot carry
    /// are refused up front on the wire, for every engine family, and
    /// the service goes on answering: a valid thread submitted next
    /// runs to its structured outcome.
    #[test]
    fn oversized_arities_are_refused_and_the_service_carries_on() {
        let mut svc = Service::new(ServeConfig::default());
        for (engine, extra) in [
            ("vm", "\"results\":1099511627776"),
            ("vm-fused", "\"results\":100"),
            ("sem", "\"results\":9"),
            ("vm-decoded", "\"args\":[1,2,3,4,5,6,7,8,9]"),
        ] {
            let r = roundtrip(
                &mut svc,
                &format!(
                    "{{\"op\":\"submit\",\"source\":\"{}\",\"engine\":\"{engine}\",{extra}}}",
                    json_escape(SRC)
                ),
            );
            assert!(
                r.starts_with("{\"ok\":0,\"error\":") && r.contains("value registers"),
                "{engine} {extra} -> {r}"
            );
        }
        let r = roundtrip(&mut svc, "{\"op\":\"tick\"}");
        assert!(r.contains("\"dispatched\":0"), "nothing was queued: {r}");
        let r = roundtrip(
            &mut svc,
            &format!(
                "{{\"op\":\"submit\",\"source\":\"{}\",\"args\":[4]}}",
                json_escape(SRC)
            ),
        );
        assert_eq!(r, "{\"ok\":1,\"id\":0}", "{r}");
        roundtrip(&mut svc, "{\"op\":\"tick\",\"quanta\":10}");
        assert_eq!(
            roundtrip(&mut svc, "{\"op\":\"resume\",\"id\":0,\"reply\":1}"),
            "{\"ok\":1}"
        );
        roundtrip(&mut svc, "{\"op\":\"tick\",\"quanta\":10}");
        let r = roundtrip(&mut svc, "{\"op\":\"poll\",\"id\":0}");
        assert!(
            r.contains("\"state\":\"done\"") && r.contains("halt [5]"),
            "{r}"
        );
    }

    /// Words wider than 32 bits are refused on the wire as on the API:
    /// the two engine families would read them differently.
    #[test]
    fn wide_words_are_rejected_on_the_protocol_path() {
        let mut svc = Service::new(ServeConfig::default());
        let submit = |args: &str| {
            format!(
                "{{\"op\":\"submit\",\"source\":\"{}\",\"args\":[{args}]}}",
                json_escape(SRC)
            )
        };
        let r = roundtrip(&mut svc, &submit("4294967297"));
        assert!(
            r.starts_with("{\"ok\":0,\"error\":") && r.contains("32-bit"),
            "{r}"
        );
        let r = roundtrip(&mut svc, &submit("4294967295"));
        assert_eq!(r, "{\"ok\":1,\"id\":0}", "{r}");
        let r = roundtrip(&mut svc, "{\"op\":\"tick\",\"quanta\":10}");
        assert!(r.contains("\"yielded\":1"), "{r}");
        let r = roundtrip(
            &mut svc,
            "{\"op\":\"resume\",\"id\":0,\"reply\":4294967296}",
        );
        assert!(
            r.starts_with("{\"ok\":0,\"error\":") && r.contains("32-bit"),
            "{r}"
        );
        let r = roundtrip(
            &mut svc,
            "{\"op\":\"resume\",\"id\":0,\"reply\":4294967295}",
        );
        assert_eq!(r, "{\"ok\":1}");
    }

    /// One client sending garbage — bytes that are not UTF-8, or a line
    /// past [`MAX_LINE`] — loses its own connection and nothing else:
    /// the next client is served and `shutdown` still ends the server
    /// cleanly.
    #[test]
    fn a_bad_client_ends_only_its_own_connection() {
        use std::io::{BufRead, BufReader, Read, Write};
        use std::net::{Shutdown, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let svc = Service::new(ServeConfig::default());
        let server = std::thread::spawn(move || serve_on(listener, svc));

        // Client A: a line that is not UTF-8 — the server hangs up.
        let mut a = TcpStream::connect(addr).expect("connect");
        a.write_all(b"\xff\xfe\n").unwrap();
        let mut rest = Vec::new();
        let _ = a.read_to_end(&mut rest);
        assert!(rest.is_empty(), "no reply to a non-UTF-8 line");

        // Client A again: an over-long line gets an error line, then
        // the server hangs up.
        let mut a = TcpStream::connect(addr).expect("connect");
        a.write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
        a.shutdown(Shutdown::Write).unwrap();
        let mut reply = String::new();
        a.read_to_string(&mut reply).unwrap();
        assert!(
            reply.starts_with("{\"ok\":0,\"error\":") && reply.contains("longer than"),
            "{reply}"
        );

        // Client B is served as if nothing happened.
        let b = TcpStream::connect(addr).expect("connect");
        let mut writer = b.try_clone().unwrap();
        let mut reader = BufReader::new(b);
        let mut say = |line: &str| {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response.trim_end().to_string()
        };
        let r = say("{\"op\":\"stats\"}");
        assert!(r.starts_with("{\"ok\":1,\"submitted\":0"), "{r}");
        assert_eq!(say("{\"op\":\"shutdown\"}"), "{\"ok\":1}");
        server.join().unwrap().expect("server exits cleanly");
    }
}
