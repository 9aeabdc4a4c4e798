//! Checkpoint/restore for the overload control plane.
//!
//! A [`ControlPlaneSnapshot`] captures *all* mutable state of a
//! [`ServingSession`](crate::overload::ServingSession) between steps:
//! the deployed placement and rescheduler repair state, admitted
//! tenants, the retry queue, the drift walk, the scheduler's GP
//! warm-start, the RNG stream, the step cursor, and every accumulated
//! output (epochs, events, counters). Restoring a snapshot into a
//! fresh session and running it to completion therefore produces a
//! [`ServingRun`](crate::serving::ServingRun) that is **bit-identical**
//! to the uninterrupted run — the crash-recovery property the
//! `crash_at_any_step_then_restore_is_bit_identical` test drives at
//! every step index.
//!
//! The wire format is JSON (via the vendored `serde_json` stand-in)
//! with one deliberate twist: every `f64` is encoded as the `u64` of
//! [`f64::to_bits`]. Decimal round-trips of floats are lossy in
//! general; bit-exact restore is the whole point, so floats travel as
//! bits. Static strings (event kinds, outcomes, replan scopes, ladder
//! rungs) are re-interned against closed tables on decode — an unknown
//! label is a decode error, not a dangling allocation.
//!
//! Run *parameters* (scenario shape, PaMO config, budget policy) are
//! intentionally not serialized: a restore is "restart the binary with
//! the same flags, then load state", exactly like any checkpointed
//! service. Feeding a snapshot into a session built with different
//! parameters is detected where cheap (length mismatches) and
//! otherwise undefined, like pointing a database at someone else's WAL.

use eva_obs::DecisionRung;
use eva_sched::{Assignment, StreamId, StreamTiming};
use eva_serve::{ChurnAction, ChurnEvent, QueueEntry, ReplanStats};
use eva_workload::{ClipProfile, VideoConfig};
use serde_json::{from_str, to_string, Map, Number, Value};

use crate::error::CoreError;
use crate::models::ProfilingDesign;
use crate::online::EpochRecord;
use crate::serving::ServeEvent;

/// Current snapshot format version (3: epoch records no longer carry
/// `planning_bps`).
pub(crate) const SNAPSHOT_VERSION: u64 = 3;

/// The step cursor: where in the serving run the session stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotCursor {
    /// About to run epoch `usize`'s boundary decision.
    Boundary(usize),
    /// Inside epoch `usize`'s event window.
    Window(usize),
    /// About to run the end-of-horizon flush.
    Flush,
    /// Run complete.
    Done,
}

impl SnapshotCursor {
    fn encode(self) -> (u64, u64) {
        match self {
            SnapshotCursor::Boundary(e) => (0, e as u64),
            SnapshotCursor::Window(e) => (1, e as u64),
            SnapshotCursor::Flush => (2, 0),
            SnapshotCursor::Done => (3, 0),
        }
    }

    fn decode(kind: u64, epoch: u64) -> Result<Self, CoreError> {
        match kind {
            0 => Ok(SnapshotCursor::Boundary(epoch as usize)),
            1 => Ok(SnapshotCursor::Window(epoch as usize)),
            2 => Ok(SnapshotCursor::Flush),
            3 => Ok(SnapshotCursor::Done),
            _ => Err(snap_err("cursor")),
        }
    }
}

/// Every piece of mutable control-plane state, checkpointed between
/// session steps. Fields are crate-private; sessions build and consume
/// snapshots, external callers move them through
/// [`to_json`](ControlPlaneSnapshot::to_json) /
/// [`from_json`](ControlPlaneSnapshot::from_json).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlaneSnapshot {
    pub(crate) cursor: SnapshotCursor,
    pub(crate) idx: usize,
    pub(crate) deferred: Vec<ChurnEvent>,
    pub(crate) rng_state: [u64; 4],
    pub(crate) drift_clips: Vec<ClipProfile>,
    pub(crate) base_clips: Vec<ClipProfile>,
    pub(crate) base_uplinks: Vec<f64>,
    pub(crate) warm: Option<Vec<Vec<f64>>>,
    pub(crate) design: Option<ProfilingDesign>,
    pub(crate) extras: Vec<(u64, ClipProfile)>,
    pub(crate) configs: Vec<VideoConfig>,
    pub(crate) assignment: Option<Assignment>,
    pub(crate) resch_groups: Vec<Vec<StreamTiming>>,
    pub(crate) resch_group_server: Vec<usize>,
    pub(crate) resch_stats: ReplanStats,
    pub(crate) truly_up: Vec<bool>,
    pub(crate) belief: Vec<bool>,
    pub(crate) queue_entries: Vec<QueueEntry>,
    pub(crate) queue_peak: usize,
    pub(crate) queue_shed: u64,
    pub(crate) zombies: Vec<u64>,
    pub(crate) events: Vec<ServeEvent>,
    pub(crate) epochs: Vec<EpochRecord>,
    pub(crate) accepted: u64,
    pub(crate) rejected: u64,
    pub(crate) min_floor_margin: f64,
    pub(crate) value_integral: f64,
    pub(crate) seg_start: f64,
    pub(crate) rate: f64,
    pub(crate) degraded: bool,
    pub(crate) pending_batch: u64,
    pub(crate) budget_limit: u64,
    pub(crate) budget_spent: u64,
    pub(crate) budget_overruns: u64,
    pub(crate) budget_spent_total: u64,
    pub(crate) budget_overruns_total: u64,
    pub(crate) deadline_hits: u64,
    pub(crate) deadline_misses: u64,
    pub(crate) rung_counts: [u64; 3],
}

fn snap_err(context: &'static str) -> CoreError {
    CoreError::Snapshot { context }
}

// ---- encode helpers ----

fn jf(v: f64) -> Value {
    Value::Number(Number::U(v.to_bits()))
}

fn ju(v: u64) -> Value {
    Value::Number(Number::U(v))
}

fn jus(v: usize) -> Value {
    ju(v as u64)
}

fn jfv(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|&x| jf(x)).collect())
}

fn jbv(v: &[bool]) -> Value {
    Value::Array(v.iter().map(|&b| Value::Bool(b)).collect())
}

fn juv(v: &[usize]) -> Value {
    Value::Array(v.iter().map(|&x| jus(x)).collect())
}

fn jclip(c: &ClipProfile) -> Value {
    let mut o = Map::new();
    o.insert("name".into(), Value::String(c.name.clone()));
    o.insert("acc".into(), jf(c.accuracy_scale));
    o.insert("complexity".into(), jf(c.complexity));
    o.insert("bitrate".into(), jf(c.bitrate_factor));
    o.insert("motion".into(), jf(c.motion));
    Value::Object(o)
}

fn jconfig(c: &VideoConfig) -> Value {
    Value::Array(vec![jf(c.resolution), jf(c.fps)])
}

fn jtiming(t: &StreamTiming) -> Value {
    Value::Array(vec![
        jus(t.id.source),
        jus(t.id.part),
        ju(t.period),
        ju(t.proc),
    ])
}

fn jchurn(e: &ChurnEvent) -> Value {
    let mut o = Map::new();
    o.insert("t".into(), jf(e.time_s));
    o.insert("tenant".into(), ju(e.tenant));
    o.insert(
        "action".into(),
        Value::String(
            match e.action {
                ChurnAction::Arrive => "arrive",
                ChurnAction::Depart => "depart",
            }
            .into(),
        ),
    );
    Value::Object(o)
}

fn jassignment(a: &Assignment) -> Value {
    let mut o = Map::new();
    o.insert(
        "streams".into(),
        Value::Array(a.streams.iter().map(jtiming).collect()),
    );
    o.insert("server_of".into(), juv(&a.server_of));
    o.insert(
        "groups".into(),
        Value::Array(a.groups.iter().map(|g| juv(g)).collect()),
    );
    o.insert("group_server".into(), juv(&a.group_server));
    o.insert("comm".into(), jf(a.total_comm_latency));
    Value::Object(o)
}

fn jevent(e: &ServeEvent) -> Value {
    let mut o = Map::new();
    o.insert("t".into(), jf(e.time_s));
    o.insert("kind".into(), Value::String(e.kind.into()));
    o.insert("tenant".into(), e.tenant.map(ju).unwrap_or(Value::Null));
    o.insert("outcome".into(), Value::String(e.outcome.into()));
    o.insert(
        "scope".into(),
        e.scope
            .map(|s| Value::String(s.into()))
            .unwrap_or(Value::Null),
    );
    o.insert("reaction".into(), jf(e.reaction_s));
    o.insert("live".into(), jus(e.live_tenants));
    o.insert("rung".into(), Value::String(e.rung.into()));
    Value::Object(o)
}

fn jepoch(e: &EpochRecord) -> Value {
    let mut o = Map::new();
    o.insert("epoch".into(), jus(e.epoch));
    o.insert("divergence".into(), jf(e.divergence));
    o.insert("online".into(), jf(e.online_benefit));
    o.insert(
        "static".into(),
        e.static_benefit.map(jf).unwrap_or(Value::Null),
    );
    o.insert(
        "configs".into(),
        Value::Array(e.configs.iter().map(jconfig).collect()),
    );
    o.insert("alive".into(), jbv(&e.alive));
    o.insert("degraded".into(), Value::Bool(e.degraded));
    o.insert("rung".into(), Value::String(e.rung.as_str().into()));
    Value::Object(o)
}

// ---- decode helpers ----

fn get<'a>(o: &'a Map, key: &'static str) -> Result<&'a Value, CoreError> {
    o.get(key).ok_or(snap_err(key))
}

fn gu(o: &Map, key: &'static str) -> Result<u64, CoreError> {
    get(o, key)?.as_u64().ok_or(snap_err(key))
}

fn gus(o: &Map, key: &'static str) -> Result<usize, CoreError> {
    Ok(gu(o, key)? as usize)
}

fn gf(o: &Map, key: &'static str) -> Result<f64, CoreError> {
    Ok(f64::from_bits(gu(o, key)?))
}

fn gb(o: &Map, key: &'static str) -> Result<bool, CoreError> {
    get(o, key)?.as_bool().ok_or(snap_err(key))
}

fn garr<'a>(o: &'a Map, key: &'static str) -> Result<&'a Vec<Value>, CoreError> {
    get(o, key)?.as_array().ok_or(snap_err(key))
}

fn gobj<'a>(v: &'a Value, context: &'static str) -> Result<&'a Map, CoreError> {
    v.as_object().ok_or(snap_err(context))
}

fn du(v: &Value, context: &'static str) -> Result<u64, CoreError> {
    v.as_u64().ok_or(snap_err(context))
}

fn df(v: &Value, context: &'static str) -> Result<f64, CoreError> {
    Ok(f64::from_bits(du(v, context)?))
}

fn dfv(o: &Map, key: &'static str) -> Result<Vec<f64>, CoreError> {
    garr(o, key)?.iter().map(|v| df(v, key)).collect()
}

fn dbv(o: &Map, key: &'static str) -> Result<Vec<bool>, CoreError> {
    garr(o, key)?
        .iter()
        .map(|v| v.as_bool().ok_or(snap_err(key)))
        .collect()
}

fn duv(v: &Value, context: &'static str) -> Result<Vec<usize>, CoreError> {
    v.as_array()
        .ok_or(snap_err(context))?
        .iter()
        .map(|x| Ok(du(x, context)? as usize))
        .collect()
}

fn dclip(v: &Value) -> Result<ClipProfile, CoreError> {
    let o = gobj(v, "clip")?;
    Ok(ClipProfile {
        name: get(o, "name")?
            .as_str()
            .ok_or(snap_err("name"))?
            .to_string(),
        accuracy_scale: gf(o, "acc")?,
        complexity: gf(o, "complexity")?,
        bitrate_factor: gf(o, "bitrate")?,
        motion: gf(o, "motion")?,
    })
}

fn dconfig(v: &Value) -> Result<VideoConfig, CoreError> {
    let a = v.as_array().ok_or(snap_err("config"))?;
    if a.len() != 2 {
        return Err(snap_err("config"));
    }
    Ok(VideoConfig {
        resolution: df(&a[0], "config")?,
        fps: df(&a[1], "config")?,
    })
}

fn dtiming(v: &Value) -> Result<StreamTiming, CoreError> {
    let a = v.as_array().ok_or(snap_err("timing"))?;
    if a.len() != 4 {
        return Err(snap_err("timing"));
    }
    Ok(StreamTiming {
        id: StreamId {
            source: du(&a[0], "timing")? as usize,
            part: du(&a[1], "timing")? as usize,
        },
        period: du(&a[2], "timing")?,
        proc: du(&a[3], "timing")?,
    })
}

fn dchurn(v: &Value) -> Result<ChurnEvent, CoreError> {
    let o = gobj(v, "churn")?;
    Ok(ChurnEvent {
        time_s: gf(o, "t")?,
        tenant: gu(o, "tenant")?,
        action: match get(o, "action")?.as_str() {
            Some("arrive") => ChurnAction::Arrive,
            Some("depart") => ChurnAction::Depart,
            _ => return Err(snap_err("action")),
        },
    })
}

fn dassignment(v: &Value) -> Result<Assignment, CoreError> {
    let o = gobj(v, "assignment")?;
    Ok(Assignment {
        streams: garr(o, "streams")?
            .iter()
            .map(dtiming)
            .collect::<Result<_, _>>()?,
        server_of: duv(get(o, "server_of")?, "server_of")?,
        groups: garr(o, "groups")?
            .iter()
            .map(|g| duv(g, "groups"))
            .collect::<Result<_, _>>()?,
        group_server: duv(get(o, "group_server")?, "group_server")?,
        total_comm_latency: gf(o, "comm")?,
    })
}

/// Re-intern an event kind against the closed table.
fn intern_kind(s: &str) -> Option<&'static str> {
    ["arrival", "departure", "failure", "restore"]
        .into_iter()
        .find(|&k| k == s)
}

/// Re-intern an event outcome against the closed table.
fn intern_outcome(s: &str) -> Option<&'static str> {
    [
        "accepted",
        "queued",
        "rejected",
        "replanned",
        "ignored",
        "degraded",
        "shed",
        "deferred",
    ]
    .into_iter()
    .find(|&k| k == s)
}

/// Re-intern a replan scope against the closed table.
fn intern_scope(s: &str) -> Option<&'static str> {
    ["incremental", "full", "coalesced", "none"]
        .into_iter()
        .find(|&k| k == s)
}

fn devent(v: &Value) -> Result<ServeEvent, CoreError> {
    let o = gobj(v, "event")?;
    Ok(ServeEvent {
        time_s: gf(o, "t")?,
        kind: get(o, "kind")?
            .as_str()
            .and_then(intern_kind)
            .ok_or(snap_err("kind"))?,
        tenant: match get(o, "tenant")? {
            Value::Null => None,
            v => Some(du(v, "tenant")?),
        },
        outcome: get(o, "outcome")?
            .as_str()
            .and_then(intern_outcome)
            .ok_or(snap_err("outcome"))?,
        scope: match get(o, "scope")? {
            Value::Null => None,
            v => Some(v.as_str().and_then(intern_scope).ok_or(snap_err("scope"))?),
        },
        reaction_s: gf(o, "reaction")?,
        live_tenants: gus(o, "live")?,
        rung: get(o, "rung")?
            .as_str()
            .and_then(DecisionRung::parse)
            .map(DecisionRung::as_str)
            .ok_or(snap_err("rung"))?,
    })
}

fn depoch(v: &Value) -> Result<EpochRecord, CoreError> {
    let o = gobj(v, "epoch")?;
    Ok(EpochRecord {
        epoch: gus(o, "epoch")?,
        divergence: gf(o, "divergence")?,
        online_benefit: gf(o, "online")?,
        static_benefit: match get(o, "static")? {
            Value::Null => None,
            v => Some(df(v, "static")?),
        },
        configs: garr(o, "configs")?
            .iter()
            .map(dconfig)
            .collect::<Result<_, _>>()?,
        alive: dbv(o, "alive")?,
        degraded: gb(o, "degraded")?,
        rung: get(o, "rung")?
            .as_str()
            .and_then(DecisionRung::parse)
            .ok_or(snap_err("rung"))?,
    })
}

impl ControlPlaneSnapshot {
    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut o = Map::new();
        o.insert("version".into(), ju(SNAPSHOT_VERSION));
        let (ck, ce) = self.cursor.encode();
        o.insert("cursor_kind".into(), ju(ck));
        o.insert("cursor_epoch".into(), ju(ce));
        o.insert("idx".into(), jus(self.idx));
        o.insert(
            "deferred".into(),
            Value::Array(self.deferred.iter().map(jchurn).collect()),
        );
        o.insert(
            "rng".into(),
            Value::Array(self.rng_state.iter().map(|&s| ju(s)).collect()),
        );
        o.insert(
            "drift_clips".into(),
            Value::Array(self.drift_clips.iter().map(jclip).collect()),
        );
        o.insert(
            "base_clips".into(),
            Value::Array(self.base_clips.iter().map(jclip).collect()),
        );
        o.insert("base_uplinks".into(), jfv(&self.base_uplinks));
        o.insert(
            "warm".into(),
            self.warm
                .as_ref()
                .map(|w| Value::Array(w.iter().map(|t| jfv(t)).collect()))
                .unwrap_or(Value::Null),
        );
        o.insert(
            "design".into(),
            self.design
                .as_ref()
                .map(|d| {
                    let mut m = Map::new();
                    m.insert(
                        "configs".into(),
                        Value::Array(d.configs.iter().map(jconfig).collect()),
                    );
                    m.insert("uplinks".into(), jfv(&d.uplinks));
                    Value::Object(m)
                })
                .unwrap_or(Value::Null),
        );
        o.insert(
            "extras".into(),
            Value::Array(
                self.extras
                    .iter()
                    .map(|(id, c)| Value::Array(vec![ju(*id), jclip(c)]))
                    .collect(),
            ),
        );
        o.insert(
            "configs".into(),
            Value::Array(self.configs.iter().map(jconfig).collect()),
        );
        o.insert(
            "assignment".into(),
            self.assignment
                .as_ref()
                .map(jassignment)
                .unwrap_or(Value::Null),
        );
        o.insert(
            "resch_groups".into(),
            Value::Array(
                self.resch_groups
                    .iter()
                    .map(|g| Value::Array(g.iter().map(jtiming).collect()))
                    .collect(),
            ),
        );
        o.insert("resch_group_server".into(), juv(&self.resch_group_server));
        o.insert(
            "resch_stats".into(),
            Value::Array(vec![
                ju(self.resch_stats.incremental),
                ju(self.resch_stats.full),
                ju(self.resch_stats.coalesced),
            ]),
        );
        o.insert("truly_up".into(), jbv(&self.truly_up));
        o.insert("belief".into(), jbv(&self.belief));
        o.insert(
            "queue".into(),
            Value::Array(
                self.queue_entries
                    .iter()
                    .map(|e| Value::Array(vec![ju(e.tenant), jf(e.enqueued_at_s)]))
                    .collect(),
            ),
        );
        o.insert("queue_peak".into(), jus(self.queue_peak));
        o.insert("queue_shed".into(), ju(self.queue_shed));
        o.insert(
            "zombies".into(),
            Value::Array(self.zombies.iter().map(|&z| ju(z)).collect()),
        );
        o.insert(
            "events".into(),
            Value::Array(self.events.iter().map(jevent).collect()),
        );
        o.insert(
            "epochs".into(),
            Value::Array(self.epochs.iter().map(jepoch).collect()),
        );
        o.insert("accepted".into(), ju(self.accepted));
        o.insert("rejected".into(), ju(self.rejected));
        o.insert("min_floor_margin".into(), jf(self.min_floor_margin));
        o.insert("value_integral".into(), jf(self.value_integral));
        o.insert("seg_start".into(), jf(self.seg_start));
        o.insert("rate".into(), jf(self.rate));
        o.insert("degraded".into(), Value::Bool(self.degraded));
        o.insert("pending_batch".into(), ju(self.pending_batch));
        o.insert("budget_limit".into(), ju(self.budget_limit));
        o.insert("budget_spent".into(), ju(self.budget_spent));
        o.insert("budget_overruns".into(), ju(self.budget_overruns));
        o.insert("budget_spent_total".into(), ju(self.budget_spent_total));
        o.insert(
            "budget_overruns_total".into(),
            ju(self.budget_overruns_total),
        );
        o.insert("deadline_hits".into(), ju(self.deadline_hits));
        o.insert("deadline_misses".into(), ju(self.deadline_misses));
        o.insert(
            "rung_counts".into(),
            Value::Array(self.rung_counts.iter().map(|&c| ju(c)).collect()),
        );
        to_string(&Value::Object(o)).unwrap_or_default()
    }

    /// Decode a snapshot from its JSON form. Every missing, ill-typed
    /// or unknown-label field surfaces as [`CoreError::Snapshot`].
    pub fn from_json(text: &str) -> Result<Self, CoreError> {
        let root = from_str(text).map_err(|_| snap_err("json"))?;
        let o = gobj(&root, "root")?;
        if gu(o, "version")? != SNAPSHOT_VERSION {
            return Err(snap_err("version"));
        }
        let rng_vals = garr(o, "rng")?;
        if rng_vals.len() != 4 {
            return Err(snap_err("rng"));
        }
        let mut rng_state = [0u64; 4];
        for (slot, v) in rng_state.iter_mut().zip(rng_vals) {
            *slot = du(v, "rng")?;
        }
        let stats_vals = garr(o, "resch_stats")?;
        if stats_vals.len() != 3 {
            return Err(snap_err("resch_stats"));
        }
        let rung_vals = garr(o, "rung_counts")?;
        if rung_vals.len() != 3 {
            return Err(snap_err("rung_counts"));
        }
        let mut rung_counts = [0u64; 3];
        for (slot, v) in rung_counts.iter_mut().zip(rung_vals) {
            *slot = du(v, "rung_counts")?;
        }
        Ok(ControlPlaneSnapshot {
            cursor: SnapshotCursor::decode(gu(o, "cursor_kind")?, gu(o, "cursor_epoch")?)?,
            idx: gus(o, "idx")?,
            deferred: garr(o, "deferred")?
                .iter()
                .map(dchurn)
                .collect::<Result<_, _>>()?,
            rng_state,
            drift_clips: garr(o, "drift_clips")?
                .iter()
                .map(dclip)
                .collect::<Result<_, _>>()?,
            base_clips: garr(o, "base_clips")?
                .iter()
                .map(dclip)
                .collect::<Result<_, _>>()?,
            base_uplinks: dfv(o, "base_uplinks")?,
            warm: match get(o, "warm")? {
                Value::Null => None,
                v => Some(
                    v.as_array()
                        .ok_or(snap_err("warm"))?
                        .iter()
                        .map(|t| {
                            t.as_array()
                                .ok_or(snap_err("warm"))?
                                .iter()
                                .map(|x| df(x, "warm"))
                                .collect()
                        })
                        .collect::<Result<_, _>>()?,
                ),
            },
            design: match get(o, "design")? {
                Value::Null => None,
                v => {
                    let d = gobj(v, "design")?;
                    Some(ProfilingDesign {
                        configs: garr(d, "configs")?
                            .iter()
                            .map(dconfig)
                            .collect::<Result<_, _>>()?,
                        uplinks: dfv(d, "uplinks")?,
                    })
                }
            },
            extras: garr(o, "extras")?
                .iter()
                .map(|v| {
                    let pair = v.as_array().ok_or(snap_err("extras"))?;
                    if pair.len() != 2 {
                        return Err(snap_err("extras"));
                    }
                    Ok((du(&pair[0], "extras")?, dclip(&pair[1])?))
                })
                .collect::<Result<_, _>>()?,
            configs: garr(o, "configs")?
                .iter()
                .map(dconfig)
                .collect::<Result<_, _>>()?,
            assignment: match get(o, "assignment")? {
                Value::Null => None,
                v => Some(dassignment(v)?),
            },
            resch_groups: garr(o, "resch_groups")?
                .iter()
                .map(|g| {
                    g.as_array()
                        .ok_or(snap_err("resch_groups"))?
                        .iter()
                        .map(dtiming)
                        .collect()
                })
                .collect::<Result<_, _>>()?,
            resch_group_server: duv(get(o, "resch_group_server")?, "resch_group_server")?,
            resch_stats: ReplanStats {
                incremental: du(&stats_vals[0], "resch_stats")?,
                full: du(&stats_vals[1], "resch_stats")?,
                coalesced: du(&stats_vals[2], "resch_stats")?,
            },
            truly_up: dbv(o, "truly_up")?,
            belief: dbv(o, "belief")?,
            queue_entries: garr(o, "queue")?
                .iter()
                .map(|v| {
                    let pair = v.as_array().ok_or(snap_err("queue"))?;
                    if pair.len() != 2 {
                        return Err(snap_err("queue"));
                    }
                    Ok(QueueEntry {
                        tenant: du(&pair[0], "queue")?,
                        enqueued_at_s: df(&pair[1], "queue")?,
                    })
                })
                .collect::<Result<_, _>>()?,
            queue_peak: gus(o, "queue_peak")?,
            queue_shed: gu(o, "queue_shed")?,
            zombies: garr(o, "zombies")?
                .iter()
                .map(|v| du(v, "zombies"))
                .collect::<Result<_, _>>()?,
            events: garr(o, "events")?
                .iter()
                .map(devent)
                .collect::<Result<_, _>>()?,
            epochs: garr(o, "epochs")?
                .iter()
                .map(depoch)
                .collect::<Result<_, _>>()?,
            accepted: gu(o, "accepted")?,
            rejected: gu(o, "rejected")?,
            min_floor_margin: gf(o, "min_floor_margin")?,
            value_integral: gf(o, "value_integral")?,
            seg_start: gf(o, "seg_start")?,
            rate: gf(o, "rate")?,
            degraded: gb(o, "degraded")?,
            pending_batch: gu(o, "pending_batch")?,
            budget_limit: gu(o, "budget_limit")?,
            budget_spent: gu(o, "budget_spent")?,
            budget_overruns: gu(o, "budget_overruns")?,
            budget_spent_total: gu(o, "budget_spent_total")?,
            budget_overruns_total: gu(o, "budget_overruns_total")?,
            deadline_hits: gu(o, "deadline_hits")?,
            deadline_misses: gu(o, "deadline_misses")?,
            rung_counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> ControlPlaneSnapshot {
        let clip = ClipProfile {
            name: "cam-0".into(),
            accuracy_scale: 0.93,
            complexity: 1.07,
            bitrate_factor: 1.01,
            motion: 1.3,
        };
        ControlPlaneSnapshot {
            cursor: SnapshotCursor::Window(1),
            idx: 3,
            deferred: vec![ChurnEvent {
                time_s: 12.5,
                tenant: 4,
                action: ChurnAction::Depart,
            }],
            rng_state: [1, u64::MAX, 3, 4],
            drift_clips: vec![clip.clone()],
            base_clips: vec![clip.clone()],
            base_uplinks: vec![2.0e7, 0.1 + 0.2],
            warm: Some(vec![vec![0.5, -1.25_f64.exp()]]),
            design: Some(ProfilingDesign {
                configs: vec![VideoConfig {
                    resolution: 720.0,
                    fps: 15.0,
                }],
                uplinks: vec![1.5e7],
            }),
            extras: vec![(7, clip)],
            configs: vec![VideoConfig {
                resolution: 1080.0,
                fps: 30.0,
            }],
            assignment: Some(Assignment {
                streams: vec![StreamTiming {
                    id: StreamId { source: 0, part: 0 },
                    period: 100,
                    proc: 40,
                }],
                server_of: vec![2],
                groups: vec![vec![0]],
                group_server: vec![2],
                total_comm_latency: 0.034,
            }),
            resch_groups: vec![vec![StreamTiming {
                id: StreamId { source: 0, part: 0 },
                period: 100,
                proc: 40,
            }]],
            resch_group_server: vec![2],
            resch_stats: ReplanStats {
                incremental: 5,
                full: 1,
                coalesced: 2,
            },
            truly_up: vec![true, false, true],
            belief: vec![true, true, true],
            queue_entries: vec![QueueEntry {
                tenant: 9,
                enqueued_at_s: 3.25,
            }],
            queue_peak: 4,
            queue_shed: 2,
            zombies: vec![4],
            events: vec![ServeEvent {
                time_s: 1.5,
                kind: "arrival",
                tenant: Some(9),
                outcome: "shed",
                scope: None,
                reaction_s: 0.125,
                live_tenants: 1,
                rung: "repair",
            }],
            epochs: vec![EpochRecord {
                epoch: 0,
                divergence: 0.0,
                online_benefit: 1.75,
                static_benefit: None,
                configs: vec![VideoConfig {
                    resolution: 1080.0,
                    fps: 30.0,
                }],
                alive: vec![true, true, true],
                degraded: false,
                rung: DecisionRung::Full,
            }],
            accepted: 3,
            rejected: 1,
            min_floor_margin: f64::INFINITY,
            value_integral: 123.456,
            seg_start: 40.0,
            rate: 2.5,
            degraded: true,
            pending_batch: 2,
            budget_limit: 500,
            budget_spent: 123,
            budget_overruns: 0,
            budget_spent_total: 999,
            budget_overruns_total: 0,
            deadline_hits: 2,
            deadline_misses: 1,
            rung_counts: [2, 1, 0],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = tiny_snapshot();
        let text = snap.to_json();
        let back = ControlPlaneSnapshot::from_json(&text).expect("decode");
        assert_eq!(snap, back);
        // Floats survive bit-exactly, including non-representable
        // decimals and infinity.
        assert_eq!(back.base_uplinks[1].to_bits(), (0.1_f64 + 0.2).to_bits());
        assert!(back.min_floor_margin.is_infinite());
    }

    #[test]
    fn corrupt_or_alien_json_is_a_typed_error() {
        for bad in ["", "{", "{\"version\": 99}", "{\"version\": 2}", "[1,2,3]"] {
            let err = ControlPlaneSnapshot::from_json(bad).unwrap_err();
            assert!(matches!(err, CoreError::Snapshot { .. }), "{bad:?}: {err}");
        }
        // A wrong-typed field names itself in the error.
        let mut good = tiny_snapshot().to_json();
        assert!(good.contains("\"queue_peak\": 4"), "fixture drifted");
        good = good.replace("\"queue_peak\": 4", "\"queue_peak\": true");
        let err = ControlPlaneSnapshot::from_json(&good).unwrap_err();
        assert!(err.to_string().contains("queue_peak"), "{err}");
    }

    #[test]
    fn unknown_interned_labels_are_rejected() {
        let text = tiny_snapshot()
            .to_json()
            .replace("\"outcome\": \"shed\"", "\"outcome\": \"vanished\"");
        let err = ControlPlaneSnapshot::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("outcome"), "{err}");
    }
}
