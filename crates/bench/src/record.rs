//! The one writer of the committed `BENCH_*.json` claim records.
//!
//! No serde in this offline workspace, so a record is assembled from
//! strings — here and nowhere else under `crates/bench/src` (CI's "One
//! benchmark" step greps for a hand-opened record). An [`Obj`] collects
//! members in insertion order; one whose members are all scalars renders on
//! one line, one that holds an object or an array renders as an indented
//! block. Escaping and the host stamp come from `ptp_obs::json`.

use ptp_obs::{host_fields, json_escape};
use std::fmt::Display;
use std::path::Path;

/// A JSON object under construction: rendered `"key": value` members, in
/// the order they were added.
#[derive(Default)]
pub struct Obj {
    members: Vec<String>,
    nested: bool,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn member(mut self, key: &str, value: impl Display) -> Obj {
        self.members.push(format!("\"{}\": {value}", json_escape(key)));
        self
    }

    /// A string member, escaped.
    pub fn str(self, key: &str, value: &str) -> Obj {
        self.member(key, format_args!("\"{}\"", json_escape(value)))
    }

    /// A member whose `Display` already is a JSON literal: an integer or a
    /// boolean.
    pub fn num(self, key: &str, value: impl Display) -> Obj {
        self.member(key, value)
    }

    /// A float member with a fixed number of decimals.
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Obj {
        self.member(key, format_args!("{value:.decimals$}"))
    }

    /// The `nproc` / `host` stamp every record carries, so a reader can tell
    /// a faster protocol from a bigger container.
    pub fn host(mut self) -> Obj {
        self.members.push(host_fields());
        self
    }

    /// A nested object member.
    pub fn obj(mut self, key: &str, value: Obj) -> Obj {
        self.nested = true;
        self.member(key, value.render())
    }

    /// An array-of-objects member, one element per line.
    pub fn arr(mut self, key: &str, items: impl IntoIterator<Item = Obj>) -> Obj {
        self.nested = true;
        let items: Vec<String> = items.into_iter().map(|o| o.render()).collect();
        self.member(key, block('[', &items, ']'))
    }

    fn render(&self) -> String {
        if self.nested {
            block('{', &self.members, '}')
        } else {
            format!("{{{}}}", self.members.join(", "))
        }
    }

    /// The whole record: always a block, newline-terminated.
    fn to_record(&self) -> String {
        block('{', &self.members, '}') + "\n"
    }

    /// Writes the record as `file_name` in the **repository root** —
    /// wherever the binary was started from — and prints where it went.
    pub fn write(&self, file_name: &str) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file_name);
        std::fs::write(&path, self.to_record())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("\nwrote {file_name} (repository root)");
    }
}

/// `items` one per line between `open` and `close`, indented two spaces.
/// Strings are escaped by the time they get here, so every raw newline in
/// an item is structural and takes the extra indent too.
fn block(open: char, items: &[String], close: char) -> String {
    let lines: Vec<String> =
        items.iter().map(|m| format!("  {}", m.replace('\n', "\n  "))).collect();
    format!("{open}\n{}\n{close}", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_nesting_arrays_escapes_and_the_host_stamp() {
        let record = Obj::new()
            .str("benchmark", "a \"quoted\\\" name\n")
            .host()
            .num("n", 4)
            .obj("demo", Obj::new().num("ok", true).obj("inner", Obj::new().fixed("ms", 1.0, 3)))
            .arr(
                "rows",
                [
                    Obj::new().str("k", "a").fixed("x", 2.5, 1),
                    Obj::new().str("k", "b").arr("sub", [Obj::new().num("i", 0)]),
                ],
            )
            .to_record();
        let expected = format!(
            r#"{{
  "benchmark": "a \"quoted\\\" name\n",
  {},
  "n": 4,
  "demo": {{
    "ok": true,
    "inner": {{"ms": 1.000}}
  }},
  "rows": [
    {{"k": "a", "x": 2.5}},
    {{
      "k": "b",
      "sub": [
        {{"i": 0}}
      ]
    }}
  ]
}}
"#,
            host_fields()
        );
        assert_eq!(record, expected);
        assert!(record.contains("\"nproc\": ") && record.contains("\"host\": \""));
    }
}
