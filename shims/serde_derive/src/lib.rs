//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for
//! the shapes this workspace actually uses — structs with named fields,
//! and enums whose variants are unit or struct-like — without `syn` or
//! `quote` (neither is available offline). The input item is parsed
//! directly from the compiler's `TokenStream` and the impl is emitted
//! as a string, matching serde's externally-tagged enum encoding:
//! a unit variant serialises to its name as a string, a struct variant
//! to `{"Variant": {fields...}}`.
//!
//! A subset of real serde's field attributes is honoured, because the
//! workspace relies on them for journal byte-compatibility when a
//! struct grows a field:
//!
//! * `#[serde(default)]` — on deserialisation a missing key takes
//!   `Default::default()` instead of erroring;
//! * `#[serde(default = "path")]` — ditto, via `path()`;
//! * `#[serde(skip_serializing_if = "path")]` — the field is omitted
//!   from the serialised object when `path(&field)` returns true.
//!
//! Any other `#[serde(...)]` argument is a compile-time panic, not a
//! silent no-op: pretending to honour an encoding attribute would
//! corrupt journals.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named struct field plus the serde attributes the shim honours.
struct Field {
    /// Field name.
    name: String,
    /// `None` = required on deserialise; `Some(None)` =
    /// `Default::default()` fallback; `Some(Some(path))` = `path()`
    /// fallback.
    default: Option<Option<String>>,
    /// Predicate path whose truth omits the field when serialising.
    skip_if: Option<String>,
}

/// A parsed `struct`/`enum` item: just the names the codegen needs.
enum Body {
    /// Named field list.
    Struct(Vec<Field>),
    /// `(variant, None)` for unit variants, `(variant, Some(fields))`
    /// for struct-like variants (variant fields take no attributes).
    Enum(Vec<(String, Option<Vec<String>>)>),
}

/// Derives `serde::Serialize`: a `serialize` that streams the value
/// into the shim's `JsonWriter`, fields in declaration order.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = parse_item(input);
    let out = match body {
        Body::Struct(fields) => {
            let members: Vec<String> = fields
                .iter()
                .map(|f| {
                    let fname = &f.name;
                    let member = format!("__w.field(&mut __o, \"{fname}\", &self.{fname});");
                    match &f.skip_if {
                        Some(path) => format!("if !{path}(&self.{fname}) {{ {member} }}"),
                        None => member,
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self, __w: &mut ::serde::JsonWriter<'_>) {{\n\
                         {}\n\
                     }}\n\
                 }}",
                object(&members)
            )
        }
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| match fields {
                    None => format!("{name}::{v} => __w.string(\"{v}\"),"),
                    Some(fs) => {
                        let members: Vec<String> = fs
                            .iter()
                            .map(|f| format!("__w.field(&mut __o, \"{f}\", {f});"))
                            .collect();
                        format!(
                            "{name}::{v} {{ {} }} => {{\n\
                                 let mut __t = __w.object();\n\
                                 __w.key(&mut __t, \"{v}\");\n\
                                 {}\n\
                                 __w.close(__t);\n\
                             }}",
                            fs.join(", "),
                            object(&members)
                        )
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self, __w: &mut ::serde::JsonWriter<'_>) {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    };
    out.parse().expect("derived Serialize impl parses")
}

/// The statements writing one object, as `__o`, whose members
/// `members` write.
fn object(members: &[String]) -> String {
    let binding = if members.is_empty() { "let __o" } else { "let mut __o" };
    format!("{binding} = __w.object();\n{}\n__w.close(__o);", members.join("\n"))
}

/// Derives `serde::Deserialize` (the shim's `from_value` form).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = parse_item(input);
    let out = match body {
        Body::Struct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    let fname = &f.name;
                    match &f.default {
                        None => format!(
                            "{fname}: ::serde::Deserialize::from_value(v.field(\"{fname}\")?)?"
                        ),
                        Some(fallback) => {
                            let fb = match fallback {
                                None => "::core::default::Default::default()".to_string(),
                                Some(path) => format!("{path}()"),
                            };
                            format!(
                                "{fname}: match v.get(\"{fname}\") {{\n\
                                     Some(x) => ::serde::Deserialize::from_value(x)?,\n\
                                     None => {fb},\n\
                                 }}"
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n\
                         Ok({name} {{ {} }})\n\
                     }}\n\
                 }}",
                inits.join(", ")
            )
        }
        Body::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| f.is_none())
                .map(|(v, _)| format!("\"{v}\" => Ok({name}::{v}),"))
                .collect();
            let tagged_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, f)| f.as_ref().map(|fs| (v, fs)))
                .map(|(v, fs)| {
                    let inits: Vec<String> = fs
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::from_value(inner.field(\"{f}\")?)?"
                            )
                        })
                        .collect();
                    format!("\"{v}\" => Ok({name}::{v} {{ {} }}),", inits.join(", "))
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n\
                         match v {{\n\
                             ::serde::Value::String(s) => match s.as_str() {{\n\
                                 {}\n\
                                 other => Err(::serde::DeError(format!(\n\
                                     \"unknown {name} variant `{{other}}`\"))),\n\
                             }},\n\
                             ::serde::Value::Object(pairs) if pairs.len() == 1 => {{\n\
                                 let (tag, inner) = &pairs[0];\n\
                                 match tag.as_str() {{\n\
                                     {}\n\
                                     other => Err(::serde::DeError(format!(\n\
                                         \"unknown {name} variant `{{other}}`\"))),\n\
                                 }}\n\
                             }}\n\
                             other => Err(::serde::DeError(format!(\n\
                                 \"bad {name} encoding: {{other:?}}\"))),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                tagged_arms.join("\n")
            )
        }
    };
    out.parse().expect("derived Deserialize impl parses")
}

/// Extracts the item name and field/variant names from a derive input.
fn parse_item(input: TokenStream) -> (String, Body) {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut kind = "";
    // Skip attributes (`#[...]`, including doc comments) and
    // visibility until the `struct`/`enum` keyword.
    while i < tokens.len() {
        if let TokenTree::Ident(id) = &tokens[i] {
            let s = id.to_string();
            if s == "struct" || s == "enum" {
                kind = if s == "struct" { "struct" } else { "enum" };
                i += 1;
                break;
            }
        }
        i += 1;
    }
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive: expected item name, got {other:?}"),
    };
    // Skip ahead to the body brace (no generics in this workspace, but
    // tolerate anything before the first top-level brace group).
    let group = tokens[i..]
        .iter()
        .find_map(|t| match t {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => Some(g.stream()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("derive({name}): no braced body"));
    let body = if kind == "struct" {
        Body::Struct(
            split_top_level(group)
                .into_iter()
                .filter_map(|chunk| parse_field(&chunk, &name))
                .collect(),
        )
    } else {
        Body::Enum(
            split_top_level(group)
                .into_iter()
                .filter_map(|chunk| variant(&chunk, &name))
                .collect(),
        )
    };
    (name, body)
}

/// Splits a brace-group body on commas that sit outside any `<...>`
/// angle-bracket nesting (parens/brackets/braces are already nested
/// token groups, so only angle depth needs tracking).
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = vec![Vec::new()];
    let mut angle: i32 = 0;
    for t in stream {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    chunks.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        chunks.last_mut().expect("chunk list non-empty").push(t);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// Parses one struct-field chunk — `#[attrs] vis name: Type` — into a
/// [`Field`], honouring the chunk's `#[serde(...)]` attributes.
fn parse_field(chunk: &[TokenTree], item: &str) -> Option<Field> {
    let name = field_name(chunk)?;
    let mut field = Field { name, default: None, skip_if: None };
    // Attributes appear as `#` followed by a bracket group; only the
    // `serde(...)` ones matter here (doc comments etc. pass through).
    for t in chunk {
        let TokenTree::Group(g) = t else { continue };
        if g.delimiter() != Delimiter::Bracket {
            continue;
        }
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        match inner.first() {
            Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(args)) = inner.get(1) else { continue };
        apply_serde_args(args.stream(), &mut field, item);
    }
    Some(field)
}

/// Applies the arguments of one `#[serde(...)]` attribute to `field`.
/// Unsupported arguments panic: silently ignoring an encoding attribute
/// would silently change serialized bytes.
fn apply_serde_args(stream: TokenStream, field: &mut Field, item: &str) {
    for arg in split_top_level(stream) {
        let key = match arg.first() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("derive({item}): bad serde attribute argument {other:?}"),
        };
        // `key` alone, or `key = "literal"`.
        let value = match (arg.get(1), arg.get(2)) {
            (None, _) => None,
            (Some(TokenTree::Punct(p)), Some(TokenTree::Literal(lit)))
                if p.as_char() == '=' =>
            {
                let s = lit.to_string();
                Some(s.trim_matches('"').to_string())
            }
            _ => panic!("derive({item}): bad serde attribute argument for `{key}`"),
        };
        match (key.as_str(), value) {
            ("default", path) => field.default = Some(path),
            ("skip_serializing_if", Some(path)) => field.skip_if = Some(path),
            (other, _) => panic!(
                "derive({item}): unsupported serde attribute `{other}` \
                 (the shim honours default / skip_serializing_if only)"
            ),
        }
    }
}

/// The field name in a `vis name: Type` chunk (attributes skipped).
fn field_name(chunk: &[TokenTree]) -> Option<String> {
    let mut last_ident = None;
    for t in chunk {
        match t {
            TokenTree::Punct(p) if p.as_char() == ':' => return last_ident,
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s != "pub" {
                    last_ident = Some(s);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses one enum-variant chunk: `Name`, `Name { fields }`, rejecting
/// tuple variants (nothing in the workspace uses them).
fn variant(chunk: &[TokenTree], enum_name: &str) -> Option<(String, Option<Vec<String>>)> {
    let mut name = None;
    for t in chunk {
        match t {
            TokenTree::Ident(id) if name.is_none() => name = Some(id.to_string()),
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                let fields = split_top_level(g.stream())
                    .into_iter()
                    .filter_map(|c| field_name(&c))
                    .collect();
                return name.map(|n| (n, Some(fields)));
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                panic!(
                    "derive({enum_name}): tuple variants are not supported by the serde shim"
                );
            }
            _ => {}
        }
    }
    name.map(|n| (n, None))
}
