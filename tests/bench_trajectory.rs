//! `BENCH_TRAJECTORY.json`: the paired benchmark records that changes
//! claiming or risking a performance move append with
//! `scripts/bench_pairs.sh --record BENCH_TRAJECTORY.json`. Read here with a
//! hundred lines of JSON parsing (the workspace has no serde) and held to
//! its schema: PR numbers strictly increase, and every record carries every
//! workload and every end-to-end metric of `BENCHMARK.json`.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// A recursive-descent reader of one JSON document.
struct Reader<'a> {
    text: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn peek(&mut self) -> u8 {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        *self.text.get(self.at).expect("unexpected end of JSON")
    }

    fn eat(&mut self, c: u8) {
        assert_eq!(
            self.peek(),
            c,
            "expected `{}` at byte {}",
            c as char,
            self.at
        );
        self.at += 1;
    }

    /// The items of an array or object up to `close`, each read by `item`.
    fn items(&mut self, close: u8, mut item: impl FnMut(&mut Self)) {
        self.at += 1;
        if self.peek() == close {
            self.at += 1;
            return;
        }
        loop {
            item(self);
            match self.peek() {
                b',' => self.at += 1,
                c if c == close => break self.at += 1,
                c => panic!("unexpected `{}` at byte {}", c as char, self.at),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                let mut fields = BTreeMap::new();
                self.items(b'}', |r| {
                    let Json::Str(key) = r.value() else {
                        panic!("a non-string key at byte {}", r.at)
                    };
                    r.eat(b':');
                    assert!(fields.insert(key, r.value()).is_none(), "duplicate key");
                });
                Json::Obj(fields)
            }
            b'[' => {
                let mut items = Vec::new();
                self.items(b']', |r| items.push(r.value()));
                Json::Arr(items)
            }
            b'"' => {
                let mut bytes = Vec::new();
                self.at += 1;
                loop {
                    let c = self.text[self.at];
                    self.at += 1;
                    match c {
                        b'"' => break,
                        b'\\' => {
                            let escaped = self.text[self.at];
                            self.at += 1;
                            bytes.push(match escaped {
                                b'n' => b'\n',
                                b't' => b'\t',
                                b'"' | b'\\' | b'/' => escaped,
                                _ => panic!("unsupported escape at byte {}", self.at),
                            });
                        }
                        _ => bytes.push(c),
                    }
                }
                Json::Str(String::from_utf8(bytes).expect("UTF-8 string"))
            }
            _ => {
                let start = self.at;
                let token = |c: &u8| c.is_ascii_alphanumeric() || b"+-.".contains(c);
                while self.text.get(self.at).is_some_and(token) {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.text[start..self.at]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Num(number.parse().expect("a JSON number")),
                }
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut reader = Reader {
        text: text.as_bytes(),
        at: 0,
    };
    let value = reader.value();
    while reader
        .text
        .get(reader.at)
        .is_some_and(u8::is_ascii_whitespace)
    {
        reader.at += 1;
    }
    assert_eq!(
        reader.at,
        text.len(),
        "trailing bytes after the JSON document"
    );
    value
}

fn read(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}")))
}

impl Json {
    fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields.get(key).ok_or(format!("no `{key}`")),
            _ => Err(format!("`{key}` asked of a non-object")),
        }
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Json::Num(n) if n.is_finite() => Ok(*n),
            other => Err(format!("`{key}` is {other:?}, not a number")),
        }
    }

    fn count(&self, key: &str) -> Result<u64, String> {
        let n = self.num(key)?;
        (n >= 0.0 && n.fract() == 0.0)
            .then_some(n as u64)
            .ok_or(format!("`{key}` is {n}, not a count"))
    }

    fn arr(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key)? {
            Json::Arr(items) => Ok(items),
            other => Err(format!("`{key}` is {other:?}, not an array")),
        }
    }

    fn names(&self, key: &str) -> Vec<String> {
        let items = self.arr(key).unwrap();
        let name = |item: &Json| match item.get("name").unwrap() {
            Json::Str(name) => name.clone(),
            other => panic!("a name that is {other:?}"),
        };
        items.iter().map(name).collect()
    }
}

/// Checks one record against the workloads and end-to-end metrics
/// `BENCHMARK.json` declares.
fn check_record(record: &Json, workloads: &[String], metrics: &[String]) -> Result<(), String> {
    match record.get("parent")? {
        Json::Str(sha) if sha.len() == 40 && sha.bytes().all(|c| c.is_ascii_hexdigit()) => {}
        other => return Err(format!("parent {other:?} is not a commit id")),
    }
    match record.get("command")? {
        Json::Str(command) if command.starts_with("scripts/bench_pairs.sh ") => {}
        other => return Err(format!("command {other:?} is not a bench_pairs.sh run")),
    }
    let pairs = record.count("pairs")?;
    let seeds: Vec<String> = (record.arr("seeds")?.iter())
        .map(|s| match s {
            Json::Num(n) => Ok(n.to_string()),
            other => Err(format!("seed {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    if pairs == 0 || seeds.len() as u64 != pairs {
        return Err(format!("{pairs} pairs on {} seeds", seeds.len()));
    }
    if record.num("run_seconds")? <= 0.0 {
        return Err("no run length".into());
    }
    for workload in workloads {
        let entry = record.get("workloads")?.get(workload)?;
        let failed = entry.arr("failed")?;
        if failed.len() != 2 || failed.iter().any(|f| !matches!(f, Json::Num(_))) {
            return Err(format!("{workload}: failed {failed:?}"));
        }
        let Json::Obj(identical) = entry.get("page_accesses_identical")? else {
            return Err(format!("{workload}: page accesses are not per seed"));
        };
        let known_seeds = identical.keys().all(|seed| seeds.contains(seed));
        if !known_seeds || identical.values().any(|v| !matches!(v, Json::Bool(_))) {
            return Err(format!("{workload}: page accesses {identical:?}"));
        }
        for metric in metrics {
            let m = entry.get("metrics")?.get(metric)?;
            for side in ["parent", "change"] {
                let s = m.get(side)?;
                let (p50, q1, q3) = (s.num("p50")?, s.num("q1")?, s.num("q3")?);
                if !(q1 <= p50 && p50 <= q3) {
                    return Err(format!("{workload} {metric} {side}: {q1} {p50} {q3}"));
                }
            }
            let (wins, decided) = (m.count("wins")?, m.count("decided")?);
            if wins > decided || decided > pairs {
                return Err(format!("{workload} {metric}: {wins}/{decided} of {pairs}"));
            }
        }
    }
    Ok(())
}

#[test]
fn every_record_is_complete_and_the_pr_numbers_increase() {
    let benchmark = read("BENCHMARK.json");
    let workloads = benchmark.names("workloads");
    let metrics = benchmark.names("end_to_end");
    assert_eq!(workloads.len(), 4, "{workloads:?}");
    let trajectory = read("BENCH_TRAJECTORY.json");
    let records = trajectory.arr("records").unwrap();
    assert!(!records.is_empty());
    let mut last = 0;
    for record in records {
        let pr = record.count("pr").unwrap();
        assert!(pr > last, "PR {pr} after PR {last}");
        last = pr;
        let checked = check_record(record, &workloads, &metrics);
        checked.unwrap_or_else(|e| panic!("PR {pr}: {e}"));
    }
    // The check is not vacuous: a record without one workload, or with
    // more wins than decided pairs, fails it.
    let mut broken = records[0].clone();
    let measured = fields_of(&mut broken, "workloads");
    let (name, mut entry) = measured.pop_first().unwrap();
    assert!(check_record(&broken, &workloads, &metrics).is_err());
    let metric = fields_of(&mut entry, "metrics")
        .get_mut(&metrics[0])
        .unwrap();
    let Json::Obj(metric) = metric else {
        panic!("{metric:?}")
    };
    metric.insert("wins".into(), Json::Num(1e9));
    fields_of(&mut broken, "workloads").insert(name, entry);
    assert!(check_record(&broken, &workloads, &metrics).is_err());
}

/// The fields of the object `json` holds under `key`.
fn fields_of<'a>(json: &'a mut Json, key: &str) -> &'a mut BTreeMap<String, Json> {
    match json {
        Json::Obj(fields) => match fields.get_mut(key) {
            Some(Json::Obj(inner)) => inner,
            other => panic!("`{key}` is {other:?}"),
        },
        other => panic!("{other:?} is not an object"),
    }
}
