//! A minimal structural schema checker for [`Json`] documents.
//!
//! Versioned artifacts (reports, profiles, bundles) need a way to
//! assert "this file has the shape my reader expects" without pulling in
//! a JSON-Schema implementation. A [`Schema`] is a small declarative
//! description — object fields (required or optional), homogeneous
//! arrays, scalar kinds — and [`validate`] walks a document against it,
//! reporting every mismatch with its JSON path.
//!
//! ```
//! use aov_support::schema::{self, Schema};
//! use aov_support::Json;
//!
//! let schema = Schema::object([
//!     ("name", Schema::Str, true),
//!     ("runs", Schema::Int, true),
//!     ("note", Schema::Str, false),
//! ]);
//! let doc = Json::obj().field("name", "suite").field("runs", 3);
//! assert!(schema::validate(&doc, &schema).is_ok());
//!
//! let bad = Json::obj().field("runs", "three");
//! let errors = schema::validate(&bad, &schema).unwrap_err();
//! assert_eq!(errors.len(), 2); // missing $.name, wrong type at $.runs
//! ```

use crate::json::Json;

/// The expected shape of one JSON value.
#[derive(Debug, Clone)]
pub enum Schema {
    /// Any value passes.
    Any,
    Null,
    Bool,
    /// An integer ([`Json::Int`]).
    Int,
    /// Any number ([`Json::Int`] or [`Json::Float`]).
    Num,
    Str,
    /// An array whose every element matches the inner schema.
    Arr(Box<Schema>),
    /// An object with named fields. Unknown fields are allowed (schemas
    /// stay forward-compatible); required fields must be present.
    Obj(Vec<Field>),
    /// Either `null` or the inner schema (e.g. a nullable hit rate).
    Nullable(Box<Schema>),
}

/// One object field: name, shape, and whether it must be present.
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    pub schema: Schema,
    pub required: bool,
}

impl Schema {
    /// An object schema from `(name, schema, required)` triples.
    pub fn object<const N: usize>(fields: [(&str, Schema, bool); N]) -> Schema {
        Schema::Obj(
            fields
                .into_iter()
                .map(|(name, schema, required)| Field {
                    name: name.to_string(),
                    schema,
                    required,
                })
                .collect(),
        )
    }

    /// An array-of-`inner` schema.
    #[must_use]
    pub fn array(inner: Schema) -> Schema {
        Schema::Arr(Box::new(inner))
    }

    /// A nullable-`inner` schema.
    #[must_use]
    pub fn nullable(inner: Schema) -> Schema {
        Schema::Nullable(Box::new(inner))
    }
}

/// Checks `doc` against `schema`; collects every mismatch as
/// `"$<path>: <problem>"`.
///
/// # Errors
///
/// The non-empty list of mismatch descriptions.
pub fn validate(doc: &Json, schema: &Schema) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    walk(doc, schema, "$", &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn kind(json: &Json) -> &'static str {
    match json {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) => "int",
        Json::Float(_) => "float",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn walk(doc: &Json, schema: &Schema, path: &str, errors: &mut Vec<String>) {
    let mismatch = |errors: &mut Vec<String>, want: &str| {
        errors.push(format!("{path}: expected {want}, got {}", kind(doc)));
    };
    match schema {
        Schema::Any => {}
        Schema::Null => {
            if !matches!(doc, Json::Null) {
                mismatch(errors, "null");
            }
        }
        Schema::Bool => {
            if !matches!(doc, Json::Bool(_)) {
                mismatch(errors, "bool");
            }
        }
        Schema::Int => {
            if !matches!(doc, Json::Int(_)) {
                mismatch(errors, "int");
            }
        }
        Schema::Num => {
            if !matches!(doc, Json::Int(_) | Json::Float(_)) {
                mismatch(errors, "number");
            }
        }
        Schema::Str => {
            if !matches!(doc, Json::Str(_)) {
                mismatch(errors, "string");
            }
        }
        Schema::Arr(inner) => match doc {
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    walk(item, inner, &format!("{path}[{i}]"), errors);
                }
            }
            _ => mismatch(errors, "array"),
        },
        Schema::Obj(fields) => match doc {
            Json::Obj(_) => {
                for f in fields {
                    match doc.get(&f.name) {
                        Some(value) => {
                            walk(value, &f.schema, &format!("{path}.{}", f.name), errors);
                        }
                        None if f.required => {
                            errors.push(format!("{path}.{}: required field missing", f.name));
                        }
                        None => {}
                    }
                }
            }
            _ => mismatch(errors, "object"),
        },
        Schema::Nullable(inner) => {
            if !matches!(doc, Json::Null) {
                walk(doc, inner, path, errors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite_schema() -> Schema {
        Schema::object([
            ("name", Schema::Str, true),
            ("runs", Schema::Int, true),
            ("hit_rate", Schema::nullable(Schema::Num), false),
            (
                "stages",
                Schema::array(Schema::object([
                    ("name", Schema::Str, true),
                    ("micros", Schema::Num, true),
                ])),
                true,
            ),
        ])
    }

    fn stage(name: &str, micros: i64) -> Json {
        Json::obj().field("name", name).field("micros", micros)
    }

    #[test]
    fn valid_document_passes() {
        let doc = Json::obj()
            .field("name", "suite")
            .field("runs", 3)
            .field("hit_rate", Json::Null)
            .field("stages", vec![stage("aov", 12), stage("codegen", 1)])
            .field("extra", "ignored");
        assert_eq!(validate(&doc, &suite_schema()), Ok(()));
    }

    #[test]
    fn missing_required_and_wrong_types_report_paths() {
        let doc = Json::obj()
            .field("runs", "three")
            .field("stages", vec![Json::obj().field("micros", "slow")]);
        let errors = validate(&doc, &suite_schema()).unwrap_err();
        assert!(
            errors.iter().any(|e| e.starts_with("$.name:")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("$.runs: expected int")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("$.stages[0].name")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("$.stages[0].micros: expected number")),
            "{errors:?}"
        );
    }

    #[test]
    fn nullable_accepts_value_and_null() {
        let s = Schema::nullable(Schema::Num);
        assert!(validate(&Json::Null, &s).is_ok());
        assert!(validate(&Json::Float(0.5), &s).is_ok());
        assert!(validate(&Json::Str("x".into()), &s).is_err());
    }

    #[test]
    fn num_accepts_both_int_and_float() {
        assert!(validate(&Json::Int(7), &Schema::Num).is_ok());
        assert!(validate(&Json::Float(7.5), &Schema::Num).is_ok());
        assert!(validate(&Json::Bool(true), &Schema::Num).is_err());
    }

    #[test]
    fn array_reports_every_bad_element() {
        let s = Schema::array(Schema::Int);
        let doc = Json::Arr(vec![Json::Int(1), Json::Str("x".into()), Json::Bool(true)]);
        let errors = validate(&doc, &s).unwrap_err();
        assert_eq!(errors.len(), 2);
        assert!(errors[0].contains("$[1]"));
        assert!(errors[1].contains("$[2]"));
    }
}
