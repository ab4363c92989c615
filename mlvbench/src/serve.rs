//! `serve-mixed`: one in-process `Service` behind `listen` on loopback,
//! loaded open-loop by two connections, one load thread each: a light
//! stream of cache-hot requests of every kind and a heavy stream of
//! `check` requests that always miss the cache. Every request is timed
//! from its scheduled send time, so a stall also charges the requests
//! queued behind it.

use crate::attr::{self, Replay};
use crate::gen::{self, JobSpec, Kind, Request};
use crate::golden::{Expected, Golden};
use crate::report::{Tally, Values, LIGHT_SLO_MS};
use crate::stats::{median, percentile, tail_percentile};
use crate::Role;
use mlv_core::trace::Trace;
use mlv_layout::registry;
use mlv_serve::{listen, ServeConfig, ServerHandle, Service};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop window of one round of a control phase (a main phase uses
/// its slice of the round): 1000 light requests, the fewest whose p99
/// has ten beyond it, and 2 heavy ones.
const CONTROL_WINDOW: Duration = Duration::from_secs(1);

/// Window of the traced run's sessions (4000 light requests); at most
/// the length of a run's streams.
const TRACED_WINDOW: Duration = Duration::from_secs(4);

/// How long after its window a run waits for outstanding responses
/// before it counts them as failed.
const GRACE: Duration = Duration::from_secs(30);

/// Per-connection queue depth: at the light rate, 256 queued requests
/// are 256 ms of light traffic held up behind one heavy check.
const QUEUE_DEPTH: usize = 256;

/// Lead time between the end of set-up and the first scheduled send.
const LEAD: Duration = Duration::from_millis(20);

pub struct Inputs {
    /// The whole run's streams; round `k` sends the requests scheduled
    /// in `[k·window, (k+1)·window)`.
    light: Vec<Request>,
    heavy: Vec<Request>,
    window: Duration,
    live: Option<Live>,
}

/// A started service with its two connected clients.
struct Live {
    server: ServerHandle,
    light: TcpStream,
    heavy: TcpStream,
}

impl Live {
    /// Close both clients, then stop the server and join its threads
    /// (a connection still open would block the join).
    fn stop(self) {
        for s in [&self.light, &self.heavy] {
            let _ = s.shutdown(Shutdown::Both);
        }
        drop((self.light, self.heavy));
        self.server.shutdown();
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            live.stop();
        }
    }
}

/// A service whose cache already holds every light job.
fn warm_service() -> Result<Arc<Service>, String> {
    let service = Arc::new(Service::new(ServeConfig {
        queue_depth: QUEUE_DEPTH,
        ..ServeConfig::default()
    }));
    for line in warm_lines() {
        let resp = service.handle_line(&line);
        if !resp.contains("\"ok\":true") {
            return Err(format!("warm-up request failed: {resp}"));
        }
    }
    Ok(service)
}

fn warm_lines() -> Vec<String> {
    gen::LIGHT
        .iter()
        .enumerate()
        .map(|(i, &(kind, spec, layers))| {
            Request {
                id: i as u64,
                at: Duration::ZERO,
                kind,
                job: (kind != Kind::Stats).then(|| JobSpec::new(spec, layers)),
            }
            .line()
        })
        .collect()
}

/// Generate the streams, start the service, warm its cache, connect
/// both clients and warm the transport with one round trip each.
pub fn prepare(seed: u64, role: Role, rounds: u32) -> Result<Inputs, String> {
    let window = match role {
        Role::Main(d) => d,
        Role::Control => CONTROL_WINDOW,
    };
    let (light, heavy) = gen::serve_streams(seed, window * rounds)?;
    let server = listen(warm_service()?, "127.0.0.1:0", 4).map_err(|e| e.to_string())?;
    let connect = || -> Result<TcpStream, String> {
        let s = TcpStream::connect(server.addr()).map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(s)
    };
    let live = Live {
        light: connect()?,
        heavy: connect()?,
        server,
    };
    let inputs = Inputs {
        light,
        heavy,
        window,
        live: Some(live),
    };
    let live = inputs.live.as_ref().expect("just set");
    for (conn, lines) in [(&live.light, warm_lines()), (&live.heavy, warm_lines())] {
        for line in lines {
            round_trip(conn, &line)?;
        }
    }
    Ok(inputs)
}

/// Send one frame and wait for its response (set-up and `stats` only).
fn round_trip(mut conn: &TcpStream, line: &str) -> Result<String, String> {
    conn.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(GRACE))
        .map_err(|e| e.to_string())?;
    let mut got = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match conn.read(&mut byte) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => got.push(byte[0]),
            Err(e) => return Err(e.to_string()),
        }
    }
    String::from_utf8(got).map_err(|e| e.to_string())
}

/// The raw text of the first `"key":` value in a flat response frame
/// (quotes stripped). Frames are produced by the service's own
/// renderer, so the first occurrence of a key is the one meant.
fn field<'a>(frame: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &frame[frame.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return Some(&s[..s.find('"')?]);
    }
    Some(&rest[..rest.find([',', '}'])?])
}

fn num(frame: &str, key: &str) -> Option<u64> {
    field(frame, key)?.parse().ok()
}

/// Whether `frame` is a correct answer to `req`.
fn verify_response(golden: &Golden, req: &Request, frame: &str) -> Result<(), String> {
    let what = || {
        format!(
            "{} {}",
            req.kind.name(),
            req.job.as_ref().map_or(String::new(), |j| j.key())
        )
    };
    if field(frame, "error") == Some("busy") {
        return Err(format!("{}: shed with a busy frame", what()));
    }
    if num(frame, "id") != Some(req.id) || field(frame, "ok") != Some("true") {
        return Err(format!("{}: bad response {frame}", what()));
    }
    let Some(job) = &req.job else {
        return match num(frame, "hits") {
            Some(_) => Ok(()),
            None => Err(format!("stats: no engine counters in {frame}")),
        };
    };
    let digest = field(frame, "digest").and_then(|d| u64::from_str_radix(d, 16).ok());
    match req.kind {
        Kind::Realize | Kind::Metrics => {
            let got = Expected {
                digest: digest.unwrap_or(0),
                area: num(frame, "area").unwrap_or(0),
                max_wire_planar: num(frame, "max_wire_planar").unwrap_or(0),
                total_wire: num(frame, "total_wire").unwrap_or(0),
            };
            golden.verify("flat", job, got)?;
            if field(frame, "checked") != Some("true") {
                return Err(format!("{}: not legal", what()));
            }
        }
        Kind::Check | Kind::Profile => {
            if digest.is_none() || digest != golden.digest(job) {
                return Err(format!(
                    "{}: digest {digest:?} differs from expected",
                    what()
                ));
            }
            if req.kind == Kind::Check && field(frame, "legal") != Some("true") {
                return Err(format!("{}: not legal", what()));
            }
        }
        Kind::Stats => unreachable!("stats requests carry no job"),
    }
    Ok(())
}

/// Block until `conn` has data (or EOF) to read, or `timeout` passes;
/// `Ok(true)` when a read will not block. Socket read timeouts round up
/// to the kernel tick (4 ms at 250 Hz), which would make a generator
/// that sends every 2.5 ms run milliseconds late, so this waits with
/// `ppoll`, whose timeout has microsecond resolution.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_readable(conn: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fd` and `ts` are live locals laid out as the C `pollfd`
    // and `timespec` of 64-bit Linux for the whole call; `nfds` = 1 is
    // the length of the one-entry array; a null `sigmask` leaves the
    // signal mask unchanged. `conn` keeps the descriptor open.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match ready {
        r if r > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// What happened to one request on the wire.
struct Sample {
    /// Scheduled send time.
    due: Instant,
    /// Actual send time (≥ `due`).
    sent: Instant,
    /// Response arrival and frame.
    answer: Option<(Instant, String)>,
}

/// Run one stream open-loop on one connection from one thread: send
/// each request at its scheduled time whether or not earlier answers
/// are in, and read answers while waiting. Answers are matched to
/// requests by id.
fn drive(mut conn: &TcpStream, reqs: &[Request], start: Instant) -> Result<Vec<Sample>, String> {
    let io = |e: std::io::Error| e.to_string();
    let deadline = start + reqs.last().map_or(Duration::ZERO, |r| r.at) + GRACE;
    let mut sent: Vec<Instant> = Vec::with_capacity(reqs.len());
    let mut frames: Vec<(Instant, String)> = Vec::with_capacity(reqs.len());
    let mut pending = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    while frames.len() < reqs.len() {
        let now = Instant::now();
        if let Some(req) = reqs.get(sent.len()) {
            if now >= start + req.at {
                conn.write_all(format!("{}\n", req.line()).as_bytes())
                    .map_err(io)?;
                sent.push(now);
                continue;
            }
        }
        if now >= deadline {
            break;
        }
        let wake = reqs.get(sent.len()).map_or(deadline, |r| start + r.at);
        if !wait_readable(conn, wake.saturating_duration_since(now)).map_err(io)? {
            continue;
        }
        match conn.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                let at = Instant::now();
                pending.extend_from_slice(&chunk[..n]);
                while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=nl).collect();
                    frames.push((at, String::from_utf8_lossy(&line[..nl]).into_owned()));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io(e)),
        }
    }
    let mut by_id: HashMap<u64, (Instant, String)> = HashMap::new();
    for (at, frame) in frames {
        if let Some(id) = num(&frame, "id") {
            by_id.entry(id).or_insert((at, frame));
        }
    }
    Ok(reqs
        .iter()
        .zip(sent)
        .map(|(r, sent)| Sample {
            due: start + r.at,
            sent,
            answer: by_id.remove(&r.id),
        })
        .collect())
}

/// Latency in ms of each request from its due time; a request that
/// failed, was shed or went unanswered counts as the full grace period,
/// never as a fast answer.
struct Scored {
    ms: Vec<f64>,
    ok: Vec<bool>,
    shed: u64,
    late_ms: Vec<f64>,
}

fn score(golden: &Golden, reqs: &[Request], samples: &[Sample], tally: &mut Tally) -> Scored {
    let mut s = Scored {
        ms: Vec::with_capacity(reqs.len()),
        ok: Vec::with_capacity(reqs.len()),
        shed: 0,
        late_ms: Vec::with_capacity(reqs.len()),
    };
    for (i, req) in reqs.iter().enumerate() {
        let outcome = match samples.get(i) {
            None => Err(format!("request {} was never sent", req.id)),
            Some(sample) => {
                s.late_ms
                    .push((sample.sent - sample.due).as_secs_f64() * 1e3);
                match &sample.answer {
                    None => Err(format!("request {} unanswered", req.id)),
                    Some((at, frame)) => {
                        if field(frame, "error") == Some("busy") {
                            s.shed += 1;
                        }
                        verify_response(golden, req, frame)
                            .map(|()| (*at - sample.due).as_secs_f64() * 1e3)
                    }
                }
            }
        };
        match outcome {
            Ok(ms) => {
                s.ms.push(ms);
                s.ok.push(true);
                tally.record(Ok(()));
            }
            Err(e) => {
                s.ms.push(GRACE.as_secs_f64() * 1e3);
                s.ok.push(false);
                tally.record(Err(e));
            }
        }
    }
    s
}

/// The requests of `reqs` scheduled in `[from, from + len)`, with
/// their schedule rebased to `from`.
fn window(reqs: &[Request], from: Duration, len: Duration) -> Vec<Request> {
    reqs.iter()
        .filter(|r| r.at >= from && r.at < from + len)
        .map(|r| Request {
            at: r.at - from,
            ..r.clone()
        })
        .collect()
}

/// One open-loop session over TCP.
struct Session {
    light: Scored,
    heavy: Scored,
    wall_s: f64,
    cpu_s: f64,
}

fn session(
    live: &Live,
    golden: &Golden,
    light: &[Request],
    heavy: &[Request],
    tally: &mut Tally,
) -> Result<Session, String> {
    let cpu0 = attr::cpu_seconds();
    let start = Instant::now() + LEAD;
    let (l, h) = std::thread::scope(|s| {
        let h = s.spawn(|| drive(&live.heavy, heavy, start));
        let l = drive(&live.light, light, start);
        (l, h.join().expect("heavy load thread panicked"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu0.zip(attr::cpu_seconds()).map_or(0.0, |(a, b)| b - a);
    Ok(Session {
        light: score(golden, light, &l?, tally),
        heavy: score(golden, heavy, &h?, tally),
        wall_s,
        cpu_s,
    })
}

/// Engine cache hit ratio from a `stats` request.
fn hit_ratio(live: &Live) -> Result<f64, String> {
    let stats = round_trip(&live.light, "{\"id\":0,\"kind\":\"stats\"}")?;
    match num(&stats, "hits").zip(num(&stats, "misses")) {
        Some((h, m)) => Ok(h as f64 / (h + m).max(1) as f64),
        None => Err(format!("stats frame without counters: {stats}")),
    }
}

fn p(xs: &[f64], q: f64) -> f64 {
    percentile(xs, q).unwrap_or(0.0)
}

/// Latencies and checks accumulated over a run's rounds.
#[derive(Default)]
pub struct Acc {
    rounds: u32,
    light_ms: Vec<f64>,
    light_ok: Vec<bool>,
    light_p99: Vec<f64>,
    heavy_ms: Vec<f64>,
    tally: Tally,
}

/// One round: an open-loop session over this round's window of both
/// streams. The round's light p99 is kept apart: a slow spell of the
/// host that stretches the heavy checks of one round moves that round's
/// p99 only, not the median over rounds.
pub fn round(inp: &Inputs, golden: &Golden, acc: &mut Acc) {
    let from = inp.window * acc.rounds;
    acc.rounds += 1;
    let light = window(&inp.light, from, inp.window);
    let heavy = window(&inp.heavy, from, inp.window);
    let Some(live) = &inp.live else {
        acc.tally
            .record(Err("serve session: service not running".into()));
        return;
    };
    match session(live, golden, &light, &heavy, &mut acc.tally) {
        Ok(s) => {
            let n = s.light.ms.len();
            if tail_percentile(n).is_some_and(|p| p >= 99.0) {
                acc.light_p99.push(p(&s.light.ms, 99.0));
            } else {
                acc.tally.record(Err(format!(
                    "{n} light requests in a round leave fewer than ten beyond p99"
                )));
            }
            acc.light_ms.extend(&s.light.ms);
            acc.light_ok.extend(&s.light.ok);
            acc.heavy_ms.extend(&s.heavy.ms);
        }
        Err(e) => acc.tally.record(Err(format!("serve session: {e}"))),
    }
}

/// Light p50 and SLO share and heavy p50 over every round's requests;
/// light p99 as the median of the rounds' p99s.
pub fn finish(mut acc: Acc) -> (Values, Tally) {
    let mut v = Values::default();
    let n = acc.light_ms.len();
    if let Some(p99) = median(&acc.light_p99) {
        v.set("serve.light_p50_ms", p(&acc.light_ms, 50.0));
        v.set("serve.light_p99_ms", p99);
        let met = acc
            .light_ms
            .iter()
            .zip(&acc.light_ok)
            .filter(|(ms, ok)| **ok && **ms <= LIGHT_SLO_MS)
            .count();
        v.set("serve.light_slo_ratio", met as f64 / n as f64);
        v.set("serve.heavy_p50_ms", p(&acc.heavy_ms, 50.0));
    } else {
        acc.tally
            .record(Err("no round carried enough light requests for p99".into()));
    }
    (v, acc.tally)
}

/// Both streams called directly on `service` (no TCP), each from its
/// own thread on the streams' schedule.
fn direct(service: &Service, light: &[Request], heavy: &[Request]) -> (Direct, Direct) {
    let run = |reqs: &[Request], start: Instant| -> Direct {
        let mut d = Direct::default();
        for r in reqs {
            let due = start + r.at;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let line = r.line();
            let t = Instant::now();
            std::hint::black_box(service.handle_line(&line));
            d.handle_ms.push(t.elapsed().as_secs_f64() * 1e3);
            d.from_due_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
        d
    };
    let start = Instant::now() + LEAD;
    std::thread::scope(|s| {
        let h = s.spawn(|| run(heavy, start));
        let l = run(light, start);
        (l, h.join().expect("direct heavy thread panicked"))
    })
}

/// Per request of a direct run: the `handle_line` call alone, and the
/// time from its scheduled send to its answer. Only the second sees
/// the requests held up behind one that waits for the engine lock, as
/// an open-loop client does; the first sees only the one that waited.
#[derive(Default)]
struct Direct {
    handle_ms: Vec<f64>,
    from_due_ms: Vec<f64>,
}

/// Every request of both streams, in schedule order.
fn merged<'a>(light: &'a [Request], heavy: &'a [Request]) -> Vec<&'a Request> {
    let mut all: Vec<&Request> = light.iter().chain(heavy).collect();
    all.sort_by_key(|r| r.at);
    all
}

/// The traced run: the TCP session again (client latency, lateness,
/// shedding, cache hits), direct `handle_line` on the same streams with
/// and without the heavy stream, a back-to-back replay of every request
/// without and with a trace (engine attribution and tracing cost), and
/// the JSON parser on every request line.
pub fn traced(
    inp: &Inputs,
    golden: &Golden,
    notes: &mut Vec<String>,
) -> Result<(Values, Tally), String> {
    let mut tally = Tally::default();
    let live = inp.live.as_ref().ok_or("service not running")?;
    let light = window(&inp.light, Duration::ZERO, TRACED_WINDOW);
    let heavy = window(&inp.heavy, Duration::ZERO, TRACED_WINDOW);
    let s = session(live, golden, &light, &heavy, &mut tally)?;
    let hits = hit_ratio(live)?;

    let (light_loaded, heavy_loaded) = direct(&*warm_service()?, &light, &heavy);
    let (light_alone, _) = direct(&*warm_service()?, &light, &[]);

    let all = merged(&light, &heavy);
    let lines: Vec<String> = all.iter().map(|r| r.line()).collect();
    let replay_wall = |service: &Service| {
        let t = Instant::now();
        for line in &lines {
            std::hint::black_box(service.handle_line(line));
        }
        t.elapsed().as_secs_f64()
    };
    let plain_s = replay_wall(&*warm_service()?);
    let traced_service = warm_service()?;
    let trace = Trace::new();
    let traced_s = trace.collect(|| replay_wall(&traced_service));
    let agg = trace.aggregate();

    let t = Instant::now();
    for line in &lines {
        std::hint::black_box(mlv_serve::json::parse(line).map_err(|e| e.to_string())?);
    }
    let parse_s = t.elapsed().as_secs_f64();

    let specs: Vec<&JobSpec> = all.iter().filter_map(|r| r.job.as_ref()).collect();
    let t = Instant::now();
    for j in &specs {
        std::hint::black_box(registry::parse(&j.spec)?);
    }
    let registry_s = t.elapsed().as_secs_f64();
    let mut distinct = specs.clone();
    distinct.sort();
    distinct.dedup();
    let replay = Replay::of(&distinct);

    let mut v = attr::engine_layers(&agg, &replay, "serve-mixed replay", notes);
    v.set("registry.parse_s", registry_s);
    v.set("registry.families", specs.len() as f64);
    v.set("exec.cpu_util", s.cpu_s / s.wall_s);
    v.set("trace.overhead_ratio", traced_s / plain_s);
    v.set("serve.parse_us", parse_s * 1e6 / lines.len().max(1) as f64);
    let handle_p50 = p(&light_loaded.handle_ms, 50.0);
    let handle_p99 = p(&light_loaded.from_due_ms, 99.0);
    v.set("serve.handle_light_p50_ms", handle_p50);
    v.set("serve.handle_light_p99_ms", handle_p99);
    v.set("serve.handle_heavy_ms", p(&heavy_loaded.handle_ms, 50.0));
    v.set("serve.transport_ms", p(&s.light.ms, 50.0) - handle_p50);
    v.set(
        "serve.contention_ms",
        handle_p99 - p(&light_alone.from_due_ms, 99.0),
    );
    v.set("serve.shed", (s.light.shed + s.heavy.shed) as f64);
    v.set("serve.cache_hit_ratio", hits);
    let mut late = s.light.late_ms.clone();
    late.extend(&s.heavy.late_ms);
    v.set("serve.gen_late_ms", p(&late, 99.0));

    let outside = traced_s - attr::span_s(&agg, "engine.batch") - parse_s;
    notes.push(format!(
        "unattributed[serve-mixed] replay {:.6} s: engine.batch {:.6} s, json::parse {:.6} s, \
         dispatch/lock/render {:.6} s",
        traced_s,
        attr::span_s(&agg, "engine.batch"),
        parse_s,
        outside
    ));
    notes.push(format!(
        "unattributed[serve-mixed] light client p50 {:.4} ms = handle p50 {:.4} ms + transport; \
         {} light, {} heavy requests, median lateness {:.4} ms",
        p(&s.light.ms, 50.0),
        handle_p50,
        s.light.ms.len(),
        s.heavy.ms.len(),
        median(&late).unwrap_or(0.0)
    ));
    Ok((v, tally))
}
