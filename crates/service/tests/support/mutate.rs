//! Single-mutation fuzzing of strict JSON decoders.
//!
//! A fuzz case starts from a valid encoding and applies one [`Mutation`]
//! to one field of one object anywhere in its tree. Decoders must never
//! panic on the result, and a duplicated or unknown field in a
//! fixed-schema object must always be an error. Shared by the service and
//! cluster fuzz tests, which also send every mutant on into dispatch.

use hwm_jsonio::Json;

/// The one edit a fuzz case applies to the chosen object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Append a second copy of one field.
    Duplicate,
    /// Append a field no schema knows.
    Unknown,
    /// Replace one field's value with a value of another JSON kind.
    Retype,
    /// Remove one field.
    Drop,
}

/// All four mutations, indexable by a generated number.
pub const MUTATIONS: [Mutation; 4] = [
    Mutation::Duplicate,
    Mutation::Unknown,
    Mutation::Retype,
    Mutation::Drop,
];

/// An object inside a JSON tree: its path (array indices and field
/// positions from the root) and the key it sits under, directly or as an
/// array element (`None` for the root).
struct Site {
    path: Vec<usize>,
    key: Option<String>,
}

/// Every object in `j`, root first.
fn sites(j: &Json) -> Vec<Site> {
    fn walk(j: &Json, path: &mut Vec<usize>, key: Option<&str>, out: &mut Vec<Site>) {
        match j {
            Json::Obj(fields) => {
                out.push(Site {
                    path: path.clone(),
                    key: key.map(str::to_string),
                });
                for (i, (k, v)) in fields.iter().enumerate() {
                    path.push(i);
                    walk(v, path, Some(k), out);
                    path.pop();
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    path.push(i);
                    walk(v, path, key, out);
                    path.pop();
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(j, &mut Vec::new(), None, &mut out);
    out
}

fn object_at<'a>(j: &'a mut Json, path: &[usize]) -> &'a mut Vec<(String, Json)> {
    let mut node = j;
    for &i in path {
        node = match node {
            Json::Obj(fields) => &mut fields[i].1,
            Json::Arr(items) => &mut items[i],
            _ => unreachable!("site paths only step through containers"),
        };
    }
    match node {
        Json::Obj(fields) => fields,
        _ => unreachable!("site paths end at objects"),
    }
}

/// A value of a different JSON kind than `v`.
fn retyped(v: &Json) -> Json {
    match v {
        Json::Str(_) => Json::U64(7),
        Json::U64(_) | Json::I64(_) | Json::F64(_) => Json::Str("7".into()),
        Json::Bool(_) => Json::Null,
        Json::Null => Json::Bool(true),
        Json::Arr(_) => Json::Obj(Vec::new()),
        Json::Obj(_) => Json::Arr(Vec::new()),
    }
}

/// `j` with `m` applied to field `pick` of the object at `site`; `None`
/// when that field does not exist (an unknown field is always appended,
/// once, at `pick == 0`).
fn mutate(j: &Json, site: &Site, m: Mutation, pick: usize) -> Option<Json> {
    let mut out = j.clone();
    let fields = object_at(&mut out, &site.path);
    if m == Mutation::Unknown {
        if pick > 0 {
            return None;
        }
        fields.push(("zz_fuzz_unknown".into(), Json::U64(1)));
        return Some(out);
    }
    if pick >= fields.len() {
        return None;
    }
    match m {
        Mutation::Duplicate => {
            let copy = fields[pick].clone();
            fields.push(copy);
        }
        Mutation::Retype => fields[pick].1 = retyped(&fields[pick].1),
        Mutation::Drop => {
            fields.remove(pick);
        }
        Mutation::Unknown => unreachable!("handled above"),
    }
    Some(out)
}

/// Whether `m` at `site` must make any decoder fail. Span `attrs` and
/// audit-event details (`events` in a response, `audit` in a replication
/// frame) are open key sets; audit events still refuse duplicates.
fn must_reject(m: Mutation, site: &Site) -> bool {
    let key = site.key.as_deref();
    match m {
        Mutation::Duplicate => key != Some("attrs"),
        Mutation::Unknown => !matches!(key, Some("attrs" | "events" | "audit")),
        Mutation::Retype | Mutation::Drop => false,
    }
}

/// Every mutant of `valid` under `m`, one per field of every object
/// (one per object for an unknown field), each paired with whether a
/// decoder must refuse it.
pub fn mutants(valid: &Json, m: Mutation) -> Vec<(Json, bool)> {
    let mut out = Vec::new();
    for site in sites(valid) {
        for pick in 0.. {
            let Some(mutant) = mutate(valid, &site, m, pick) else {
                break;
            };
            out.push((mutant, must_reject(m, &site)));
        }
    }
    out
}

/// Decodes every mutant of `valid` under `m` (a decoder panic fails the
/// calling test). Returns the first mutant that decoded although it must
/// be refused.
pub fn first_wrongly_accepted(
    valid: &Json,
    m: Mutation,
    decodes: impl Fn(&Json) -> bool,
) -> Option<String> {
    mutants(valid, m)
        .into_iter()
        .find(|(mutant, reject)| decodes(mutant) && *reject)
        .map(|(mutant, _)| mutant.to_string())
}
