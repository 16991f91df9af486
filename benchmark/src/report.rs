//! JSON output (hand-written: the vendored serde shim has no serializer)
//! and the environment block every output file carries.

use std::fmt::Write as _;
use std::process::Command;

pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// One line: `{"a": 1, "b": [..]}`.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(step * depth));
            }
        };
        match self {
            // `{}` on f64 is the shortest form that round-trips: every
            // measured digit, never an exponent. JSON has no NaN.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    out.push_str(&json_string(key));
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The facts about the host and build a number cannot be read without.
/// The pool size is a fact of each workload's child (`pool_threads`): no
/// `AERGIA_THREADS` override applies to in-process workloads, so it is
/// `available_parallelism` wide.
pub fn environment() -> Vec<(&'static str, Json)> {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", Json::Int(nproc as u64)),
        ("available_parallelism", Json::Int(available as u64)),
        ("gemm_isa", Json::str(aergia_tensor::gemm::active_isa().label())),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("git_head", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
    ]
}
