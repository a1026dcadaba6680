//! `served-edit`: an in-process `ffisafe serve` daemon with its own cache
//! serves two client connections, one editing ftplib-0.12 and one editing
//! ocaml-vorbis-0.1.1, each alternating a one-function edit with an
//! unchanged resubmission in a closed loop. The clock spans corpus build
//! plus the client round-trip.
//!
//! The traced run drives the same round-trip through the protocol's
//! public codec (`Request::to_json`, frames, `Reply::parse`) so each part
//! gets its own span, mirrors every submission into a local service and a
//! stage replay, and times `Request::parse` on a seeded sample of the
//! request bodies it sent.

use crate::edits::{build_corpus, Editor, Lib};
use crate::oracle::rows_of_report;
use crate::replay::{interner_seed, replay};
use crate::samples::{Op, Samples};
use crate::stats::{median, RssSampler};
use crate::trace::Tracer;
use crate::{timed, Ctx, Outcome, SETUPS};
use ffisafe_bench::spec::paper_benchmarks;
use ffisafe_cache::{CacheBackend, CacheStore};
use ffisafe_core::pipeline::cache::analyzer_cache_version;
use ffisafe_core::{AnalysisOptions, AnalysisRequest, AnalysisService, CacheMode, ServiceConfig};
use ffisafe_serve::protocol::{read_frame, write_frame, AnalyzeOutcome, Reply, Request};
use ffisafe_serve::SERVE_PROTOCOL_VERSION;
use ffisafe_serve::{AnalysisServer, ServeClient, ServeConfig, ANALYZER_VERSION};
use ffisafe_shard::LibraryReport;
use ffisafe_support::rng::Rng64;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const LIBRARIES: [&str; 2] = ["ftplib-0.12", "ocaml-vorbis-0.1.1"];
/// Warm reports per client kept for the cache-transparency check.
const TRANSPARENCY_SAMPLES: usize = 4;
/// Request bodies per client kept for timing `Request::parse`.
const DECODE_SAMPLES: usize = 8;

/// A client connection: the library's `ServeClient` for untraced
/// phases, or a raw stream for the traced phase.
enum Conn {
    Client(ServeClient),
    Raw(TcpStream),
}

fn connect_raw(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let hello =
        Request::Hello { protocol: SERVE_PROTOCOL_VERSION, analyzer: ANALYZER_VERSION.to_string() };
    write_frame(&mut stream, hello.to_json().as_bytes())?;
    match Reply::parse(&read_frame(&mut stream)?) {
        Ok(Reply::HelloOk { .. }) => Ok(stream),
        other => Err(std::io::Error::other(format!("handshake refused: {other:?}"))),
    }
}

/// A daemon on an ephemeral localhost port over a fresh cache dir.
fn start_daemon(ctx: &Ctx, name: &str) -> SocketAddr {
    let config = ServeConfig {
        service: ServiceConfig { cache_dir: Some(ctx.fresh_dir(name)), ..ServiceConfig::default() },
        ..ServeConfig::default()
    };
    AnalysisServer::bind("127.0.0.1:0", config)
        .and_then(AnalysisServer::spawn)
        .expect("daemon binds a localhost port")
}

/// The local mirror of the daemon a traced phase checks against.
struct Mirror {
    service: AnalysisService,
    store: Arc<dyn CacheBackend>,
}

/// One round-trip; `None` on a BUSY, error or broken connection.
fn round_trip(
    tr: &Tracer,
    req: u64,
    conn: &mut Conn,
    lib: &Lib,
    bodies: &mut Option<&mut Vec<Vec<u8>>>,
    bytes: &mut f64,
) -> Option<(AnalyzeOutcome, ffisafe_core::Corpus, f64)> {
    let (ml, c) = lib.texts();
    let t0 = Instant::now();
    let corpus = tr.in_span("core.corpus.build", req, || build_corpus(ml, c));
    let reply = match conn {
        Conn::Client(client) => {
            client.analyze(&corpus, AnalysisOptions::default(), CacheMode::Shared).ok()?
        }
        Conn::Raw(stream) => {
            let body = tr.in_span("serve.wire.request_encode", req, || {
                Request::analyze(&corpus, AnalysisOptions::default(), CacheMode::Shared).to_json()
            });
            let reply = tr.in_span("serve.wire.round_trip", req, || {
                write_frame(stream, body.as_bytes()).and_then(|()| read_frame(stream))
            });
            *bytes += body.len() as f64;
            if let Some(kept) = bodies.as_mut() {
                kept.push(body.into_bytes());
            }
            tr.in_span("serve.wire.reply_decode", req, || Reply::parse(&reply.ok()?).ok())?
        }
    };
    let latency = t0.elapsed().as_secs_f64();
    match reply {
        Reply::Analyze(outcome) => Some((*outcome, corpus, latency)),
        _ => None,
    }
}

/// One client's state across the phases of a run.
struct Client {
    index: usize,
    lib: Lib,
    editor: Editor,
    picker: Rng64,
    req: u64,
    samples: Samples,
}

impl Client {
    /// Edit/unchanged rounds on `conn` until `deadline`. With a mirror,
    /// every submission is also analyzed locally and replayed stage by
    /// stage, and all three reports must agree.
    fn rounds(
        &mut self,
        tr: &Tracer,
        mut conn: Conn,
        mirror: Option<&Mirror>,
        rss: Option<&RssSampler>,
        deadline: Instant,
    ) {
        let seed = interner_seed();
        let (lib, ph) = (&mut self.lib, &mut self.samples);
        while Instant::now() < deadline {
            ph.changed.push(self.editor.next(lib) as f64);
            for unchanged in [false, true] {
                self.req += 1;
                let req = self.req;
                ph.attempted += 1;
                let keep_body =
                    ph.bodies.len() < DECODE_SAMPLES && self.picker.next_u64().is_multiple_of(3);
                let mut bodies = keep_body.then_some(&mut ph.bodies);
                let mut bytes = 0.0;
                if let Some(rss) = rss {
                    rss.reset();
                }
                let Some((outcome, corpus, latency)) = tr.in_span("op", req, || {
                    round_trip(tr, req, &mut conn, lib, &mut bodies, &mut bytes)
                }) else {
                    ph.failed += 1;
                    continue;
                };
                let rss_mb = rss.map(RssSampler::peak_mb);
                let parsed = LibraryReport::from_json(String::new(), 2, &outcome.report_json);
                let Ok(served) = parsed else {
                    ph.tally
                        .mismatch(format!("served report JSON does not parse at request {req}"));
                    continue;
                };
                ph.tally.record(&lib.spec, &lib.bench, &served.rows);
                let c_loc = corpus.c_loc();
                let mut service_s = None;
                if let Some(m) = mirror {
                    let request = AnalysisRequest::new(corpus);
                    let (report, secs) = timed(|| {
                        tr.in_span("core.service.analyze", req, || m.service.analyze(&request))
                            .inspect(|r| {
                                std::hint::black_box(
                                    tr.in_span("core.report.render", req, || r.render()),
                                );
                            })
                    });
                    service_s = Some(secs);
                    let local_rows = report.as_ref().map(rows_of_report).unwrap_or_default();
                    let replayed = replay(tr, req, request.corpus(), &m.store, &seed);
                    if local_rows != served.rows || replayed != served.rows {
                        ph.tally.mismatch(format!(
                            "served, local and replayed reports differ at request {req}"
                        ));
                    }
                }
                ph.request_bytes += bytes;
                ph.record(Op {
                    unchanged,
                    latency,
                    c_loc,
                    report_hit: outcome.report_hit,
                    workers: outcome.workers_executed as usize,
                    fn_hits: served.exec.cache_fn_hits,
                    fn_misses: served.exec.cache_fn_misses,
                    rss_mb,
                    service_s,
                });
                ph.maybe_keep(TRANSPARENCY_SAMPLES, &mut self.picker, lib, || {
                    outcome.rendered_stable
                });
            }
        }
    }
}

/// What a phase scraped from its daemon (request-latency sum and count,
/// BUSY refusals), and its mirror's store occupancy.
struct DaemonTotals {
    request_s: f64,
    requests: f64,
    busy: f64,
    mirror_store: Option<ffisafe_cache::CacheStats>,
}

/// Runs both clients for one phase against a new daemon over a fresh
/// cache directory, filled with both libraries' current text (untimed).
fn phase(
    ctx: &Ctx,
    tr: &Tracer,
    clients: &mut [Client],
    rss: &RssSampler,
    name: &str,
) -> DaemonTotals {
    let deadline = Instant::now() + ctx.phase();
    let libs: Vec<&Lib> = clients.iter().map(|c| &c.lib).collect();
    let (addr, conns, _) = setup(ctx, name, &libs, tr.is_on());
    let mirror = tr.is_on().then(|| open_mirror(ctx, &libs));
    let before = daemon_counters(addr);
    std::thread::scope(|s| {
        for (client, conn) in clients.iter_mut().zip(conns) {
            let mirror = mirror.as_ref();
            // The resident set is the whole process's, daemon included,
            // so one client's operations suffice as sampling windows.
            let rss = (client.index == 0).then_some(rss);
            s.spawn(move || client.rounds(tr, conn, mirror, rss, deadline));
        }
    });
    let after = daemon_counters(addr);
    DaemonTotals {
        request_s: after.0 - before.0,
        requests: after.1 - before.1,
        busy: after.2 - before.2,
        mirror_store: mirror.and_then(|m| m.service.cache_stats()),
    }
}

/// A local service and a replay store, filled with the same text as the
/// session's daemon, that a traced phase checks the daemon against.
fn open_mirror(ctx: &Ctx, libs: &[&Lib]) -> Mirror {
    let mirror = Mirror {
        service: AnalysisService::with_cache_dir(ctx.fresh_dir("mirror"))
            .expect("mirror cache opens"),
        store: Arc::new(
            CacheStore::open(&ctx.fresh_dir("mirror-replay"), &analyzer_cache_version())
                .expect("replay store opens"),
        ),
    };
    let seed = interner_seed();
    for lib in libs {
        let (ml, c) = lib.texts();
        let corpus = build_corpus(ml, c);
        replay(&Tracer::new(false), 0, &corpus, &mirror.store, &seed);
        mirror.service.analyze(&AnalysisRequest::new(corpus)).expect("mirror fill analyzes");
    }
    mirror
}

/// A daemon filled with each library's current text, and one connection
/// per library.
fn setup(
    ctx: &Ctx,
    name: &str,
    libs: &[&Lib],
    raw: bool,
) -> (SocketAddr, Vec<Conn>, Vec<AnalyzeOutcome>) {
    let addr = start_daemon(ctx, name);
    let url = format!("tcp://{addr}");
    let mut conns = Vec::new();
    let mut fills = Vec::new();
    for lib in libs {
        let mut client = ServeClient::connect(&url).expect("client connects");
        let (ml, c) = lib.texts();
        match client.analyze(&build_corpus(ml, c), AnalysisOptions::default(), CacheMode::Shared) {
            Ok(Reply::Analyze(o)) => fills.push(*o),
            other => panic!("cold fill through the daemon failed: {other:?}"),
        }
        conns.push(if raw {
            Conn::Raw(connect_raw(addr).expect("raw client connects"))
        } else {
            Conn::Client(client)
        });
    }
    (addr, conns, fills)
}

/// `(sum, count)` of the daemon's request-latency histogram and its BUSY
/// count, scraped over the wire.
fn daemon_counters(addr: SocketAddr) -> (f64, f64, f64) {
    let text = ServeClient::connect(&format!("tcp://{addr}"))
        .and_then(|mut c| c.metrics())
        .unwrap_or_default();
    let get = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse::<f64>().ok()))
            .unwrap_or(0.0)
    };
    (
        get("ffisafe_server_request_seconds_sum "),
        get("ffisafe_server_request_seconds_count "),
        get("ffisafe_server_busy_total "),
    )
}

pub fn run(ctx: &Ctx) -> (Outcome, Tracer) {
    let specs: Vec<_> =
        paper_benchmarks().into_iter().filter(|s| LIBRARIES.contains(&s.name)).collect();
    let mut out = Outcome::default();
    let generated: Vec<Lib> = specs.into_iter().map(Lib::new).collect();
    let libs: Vec<&Lib> = generated.iter().collect();
    let mut setups = Vec::new();
    let mut fills = Vec::new();
    for i in 0..SETUPS {
        let ((_, _, filled), secs) = timed(|| setup(ctx, &format!("setup-{i}"), &libs, false));
        setups.push(secs);
        fills = filled;
    }
    out.set("setup_s", median(&setups).unwrap_or(0.0), setups.len());
    for (lib, fill) in generated.iter().zip(&fills) {
        let served = LibraryReport::from_json(String::new(), 2, &fill.report_json)
            .expect("daemon report JSON parses");
        out.tally.record(&lib.spec, &lib.bench, &served.rows);
        out.inputs.push(format!(
            "{}: c_lines={} ml_lines={} bytes={} c_functions={}",
            lib.name(),
            served.exec.c_loc,
            served.exec.ml_loc,
            lib.ml_source().len() + lib.c_source().len(),
            served.exec.functions
        ));
    }

    let mut clients: Vec<Client> = generated
        .into_iter()
        .enumerate()
        .map(|(index, lib)| Client {
            index,
            lib,
            editor: Editor::new(ctx.seed.wrapping_add((index as u64) << 40)),
            picker: Rng64::seed_from_u64(ctx.seed ^ 0x5E7 ^ index as u64),
            req: (index as u64) << 32,
            samples: Samples::default(),
        })
        .collect();
    let rss = RssSampler::start();
    phase(ctx, &Tracer::new(false), &mut clients, &rss, "daemon");
    let mut plain = Samples::default();
    for c in &mut clients {
        plain.merge(std::mem::take(&mut c.samples));
    }
    let tr = Tracer::new(ctx.trace);
    if ctx.trace {
        let daemon = phase(ctx, &tr, &mut clients, &rss, "daemon-traced");
        let mut traced = Samples::default();
        for c in &mut clients {
            traced.merge(std::mem::take(&mut c.samples));
        }
        let ops = traced.ops();
        for (i, body) in traced.bodies.iter().enumerate() {
            let parsed =
                tr.in_span("support.json.decode", u64::MAX - i as u64, || Request::parse(body));
            if parsed.is_err() {
                out.tally.mismatch("a request body the client sent does not parse".to_string());
            }
        }
        let decode = tr.self_seconds().get("support.json.decode").copied().unwrap_or(0.0)
            / traced.bodies.len().max(1) as f64;
        out.set("support.json.decode_s", decode, traced.bodies.len());
        out.set("serve.wire.request_bytes", traced.request_bytes / ops.max(1) as f64, ops);
        let daemon_s = daemon.request_s / daemon.requests.max(1.0);
        out.set("serve.daemon.request_s", daemon_s, daemon.requests as usize);
        out.set("serve.daemon.busy_total", daemon.busy, 1);
        let round_trip = tr.self_seconds().get("serve.wire.round_trip").copied().unwrap_or(0.0)
            / ops.max(1) as f64;
        out.set("serve.wire.unattributed_s", round_trip - daemon_s, ops);
        if let Some(cs) = daemon.mirror_store {
            out.set("cache.store.bytes", cs.live_bytes as f64, 1);
            out.set("cache.store.entries", cs.entries as f64, 1);
        }
        out.set_span_layers(&tr, ops);
        out.set_unattributed(ops);
        traced.set_layers(&mut out, &plain);
        plain.merge_checks(traced);
    }
    plain.set_end_to_end(&mut out);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    plain.check_transparency();
    out.tally.merge(plain.tally);
    (out, tr)
}
