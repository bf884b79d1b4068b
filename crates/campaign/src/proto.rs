//! The supervisor ⇄ worker wire protocol.
//!
//! Each message is one JSON object in one [`crate::frame`] frame, over a
//! worker's stdin/stdout pipe or its TCP connection alike. A corrupt
//! frame or a payload that is not a message is treated like worker
//! death — the supervisor kills the link and requeues its lease — so
//! protocol corruption can never corrupt campaign results.

use crate::json::Json;
use crate::wire::{
    config_from_json, config_to_json, shard_from_json, shard_to_json, stats_from_json,
    stats_to_json,
};
use cdsspec_mc::{Config, ShardSpec, Stats};

/// Supervisor → worker.
// One short-lived value per dispatch; boxing `Run`'s payload would buy
// nothing but indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ToWorker {
    /// Run one shard of one benchmark and reply with `Result` or `Error`.
    Run {
        /// Supervisor-chosen task id, echoed back in replies.
        task: u64,
        /// Benchmark display name (registry spelling).
        bench: String,
        /// The shard to explore.
        shard: ShardSpec,
        /// Semantic exploration config (the worker supplies its own
        /// `workers`/resume channels).
        config: Config,
        /// Ordering sites to weaken one step before checking
        /// (Figure 8-style fault injection; empty = default orderings).
        weaken: Vec<usize>,
    },
    /// Drain and exit cleanly.
    Exit,
}

/// Worker → supervisor.
#[derive(Debug)]
pub enum FromWorker {
    /// Lease keep-alive while a task is running.
    Heartbeat {
        /// The running task's id.
        task: u64,
    },
    /// A task finished; its complete statistics.
    Result {
        /// The finished task's id.
        task: u64,
        /// Exploration statistics for exactly this shard.
        stats: Stats,
    },
    /// A task failed inside the worker (unknown benchmark, check panic).
    Error {
        /// The failed task's id.
        task: u64,
        /// Human-readable cause.
        message: String,
    },
}

impl ToWorker {
    /// Encode to one JSON payload.
    pub fn encode(&self) -> String {
        match self {
            ToWorker::Run {
                task,
                bench,
                shard,
                config,
                weaken,
            } => Json::obj(vec![
                ("msg", Json::str("run")),
                ("task", Json::num(*task)),
                ("bench", Json::str(bench.clone())),
                ("shard", shard_to_json(shard)),
                ("config", config_to_json(config)),
                (
                    "weaken",
                    Json::Arr(weaken.iter().map(|&s| Json::num(s as u64)).collect()),
                ),
            ]),
            ToWorker::Exit => Json::obj(vec![("msg", Json::str("exit"))]),
        }
        .encode()
    }

    /// Decode one payload.
    pub fn decode(line: &str) -> Result<ToWorker, String> {
        let v = Json::parse(line)?;
        match v.get("msg").and_then(Json::as_str) {
            Some("run") => Ok(ToWorker::Run {
                task: v
                    .get("task")
                    .and_then(Json::as_u64)
                    .ok_or("run missing task")?,
                bench: v
                    .get("bench")
                    .and_then(Json::as_str)
                    .ok_or("run missing bench")?
                    .to_string(),
                shard: shard_from_json(v.get("shard").ok_or("run missing shard")?)?,
                config: config_from_json(v.get("config").ok_or("run missing config")?)?,
                weaken: v
                    .get("weaken")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|s| s.as_usize().ok_or("non-integer weaken entry"))
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            Some("exit") => Ok(ToWorker::Exit),
            other => Err(format!("unknown supervisor message {other:?}")),
        }
    }
}

impl FromWorker {
    /// Encode to one JSON payload.
    pub fn encode(&self) -> String {
        match self {
            FromWorker::Heartbeat { task } => Json::obj(vec![
                ("msg", Json::str("heartbeat")),
                ("task", Json::num(*task)),
            ]),
            FromWorker::Result { task, stats } => Json::obj(vec![
                ("msg", Json::str("result")),
                ("task", Json::num(*task)),
                ("stats", stats_to_json(stats)),
            ]),
            FromWorker::Error { task, message } => Json::obj(vec![
                ("msg", Json::str("error")),
                ("task", Json::num(*task)),
                ("message", Json::str(message.clone())),
            ]),
        }
        .encode()
    }

    /// Decode one payload.
    pub fn decode(line: &str) -> Result<FromWorker, String> {
        let v = Json::parse(line)?;
        match v.get("msg").and_then(Json::as_str) {
            Some("heartbeat") => Ok(FromWorker::Heartbeat {
                task: v
                    .get("task")
                    .and_then(Json::as_u64)
                    .ok_or("heartbeat missing task")?,
            }),
            Some("result") => Ok(FromWorker::Result {
                task: v
                    .get("task")
                    .and_then(Json::as_u64)
                    .ok_or("result missing task")?,
                stats: stats_from_json(v.get("stats").ok_or("result missing stats")?)?,
            }),
            Some("error") => Ok(FromWorker::Error {
                task: v
                    .get("task")
                    .and_then(Json::as_u64)
                    .ok_or("error missing task")?,
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("error missing message")?
                    .to_string(),
            }),
            other => Err(format!("unknown worker message {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_round_trips() {
        let config = Config {
            max_executions: 77,
            ..Config::default()
        };
        let msg = ToWorker::Run {
            task: 3,
            bench: "SPSC Queue".into(),
            shard: ShardSpec {
                floor: 1,
                script: vec![0, 2],
            },
            config,
            weaken: vec![4, 1],
        };
        let line = msg.encode();
        assert!(!line.contains('\n'));
        match ToWorker::decode(&line).unwrap() {
            ToWorker::Run {
                task,
                bench,
                shard,
                config,
                weaken,
            } => {
                assert_eq!(task, 3);
                assert_eq!(bench, "SPSC Queue");
                assert_eq!(shard.floor, 1);
                assert_eq!(shard.script, vec![0, 2]);
                assert_eq!(config.max_executions, 77);
                assert_eq!(weaken, vec![4, 1]);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        assert!(matches!(
            ToWorker::decode(&ToWorker::Exit.encode()).unwrap(),
            ToWorker::Exit
        ));
    }

    #[test]
    fn worker_messages_round_trip() {
        for msg in [
            FromWorker::Heartbeat { task: 9 },
            FromWorker::Result {
                task: 1,
                stats: Stats {
                    executions: 6,
                    ..Stats::default()
                },
            },
            FromWorker::Error {
                task: 2,
                message: "unknown benchmark \"Nope\"".into(),
            },
        ] {
            let line = msg.encode();
            assert!(!line.contains('\n'), "{line}");
            let back = FromWorker::decode(&line).unwrap();
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        }
    }

    #[test]
    fn garbage_lines_are_errors_not_panics() {
        assert!(FromWorker::decode("").is_err());
        assert!(FromWorker::decode("{}").is_err());
        assert!(FromWorker::decode("{\"msg\":\"nope\"}").is_err());
        assert!(ToWorker::decode("run it").is_err());
    }
}
