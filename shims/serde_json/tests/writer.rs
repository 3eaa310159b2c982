//! Byte pins for the JSON writer, compact and pretty. The expected
//! strings were produced by the `Value`-tree renderer the streaming
//! writer replaced, so they hold the two to the same bytes. Every case
//! also round-trips through `from_str`.

use serde::{Deserialize, Serialize, Value};
use serde_json::{from_str, to_string, to_string_pretty};
use std::collections::BTreeMap;
use std::fmt::Debug;

fn is_zero(n: &u32) -> bool {
    *n == 0
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Box { side: u32, label: String },
    Nothing {},
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    shapes: Vec<Shape>,
    tag: Option<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    name: String,
    #[serde(default, skip_serializing_if = "is_zero")]
    hidden: u32,
    #[serde(default, skip_serializing_if = "is_zero")]
    shown: u32,
    #[serde(default)]
    plain: u32,
    missing: Option<u64>,
    empty: Vec<u8>,
    empty_obj: Value,
    obj: Value,
    inner: Inner,
    grid: Vec<Vec<i32>>,
    pair: (u8, String),
    flag: bool,
}

fn record() -> Record {
    Record {
        name: "r".into(),
        hidden: 0,
        shown: 7,
        plain: 0,
        missing: None,
        empty: vec![],
        empty_obj: Value::Object(vec![]),
        obj: Value::Object(vec![
            ("b".into(), Value::Float(0.5)),
            (
                "a".into(),
                Value::Array(vec![Value::Int(-2), Value::Null, Value::Bool(false)]),
            ),
            (
                "c".into(),
                Value::Object(vec![("d".into(), Value::String("e".into()))]),
            ),
        ]),
        inner: Inner {
            shapes: vec![
                Shape::Dot,
                Shape::Box {
                    side: 3,
                    label: "lid".into(),
                },
                Shape::Nothing {},
            ],
            tag: Some("t".into()),
        },
        grid: vec![vec![1, -2], vec![], vec![3]],
        pair: (9, "nine".into()),
        flag: true,
    }
}

/// `value` writes as `compact` and `pretty`, and both texts parse back
/// to a `Value` that writes the same bytes again.
#[track_caller]
fn pin<T: Serialize + ?Sized>(value: &T, compact: &str, pretty: &str) {
    assert_eq!(to_string(&value).unwrap(), compact);
    assert_eq!(to_string_pretty(&value).unwrap(), pretty);
    for text in [compact, pretty] {
        let tree: Value = from_str(text).unwrap();
        assert_eq!(to_string(&tree).unwrap(), compact);
        assert_eq!(to_string_pretty(&tree).unwrap(), pretty);
    }
}

/// [`pin`], plus a typed round trip back to `value`.
#[track_caller]
fn pin_typed<T: Serialize + Deserialize + PartialEq + Debug>(
    value: &T,
    compact: &str,
    pretty: &str,
) {
    pin(value, compact, pretty);
    for text in [compact, pretty] {
        assert_eq!(&from_str::<T>(text).unwrap(), value);
    }
}

#[test]
fn derived_struct_skips_defaults_and_nests() {
    pin_typed(
        &record(),
        r#"{"name":"r","shown":7,"plain":0,"missing":null,"empty":[],"empty_obj":{},"obj":{"b":0.5,"a":[-2,null,false],"c":{"d":"e"}},"inner":{"shapes":["Dot",{"Box":{"side":3,"label":"lid"}},{"Nothing":{}}],"tag":"t"},"grid":[[1,-2],[],[3]],"pair":[9,"nine"],"flag":true}"#,
        r#"{
  "name": "r",
  "shown": 7,
  "plain": 0,
  "missing": null,
  "empty": [],
  "empty_obj": {},
  "obj": {
    "b": 0.5,
    "a": [
      -2,
      null,
      false
    ],
    "c": {
      "d": "e"
    }
  },
  "inner": {
    "shapes": [
      "Dot",
      {
        "Box": {
          "side": 3,
          "label": "lid"
        }
      },
      {
        "Nothing": {}
      }
    ],
    "tag": "t"
  },
  "grid": [
    [
      1,
      -2
    ],
    [],
    [
      3
    ]
  ],
  "pair": [
    9,
    "nine"
  ],
  "flag": true
}"#,
    );
    // A skipped field with `#[serde(default)]` reads back as its default.
    let r: Record = from_str(r#"{"name":"r","missing":null,"empty":[],"empty_obj":{},"obj":{},"inner":{"shapes":[],"tag":null},"grid":[],"pair":[0,""],"flag":false}"#).unwrap();
    assert_eq!((r.hidden, r.shown, r.plain), (0, 0, 0));
}

#[test]
fn variants_none_and_empty_containers() {
    pin_typed(&Shape::Dot, r#""Dot""#, r#""Dot""#);
    pin_typed(
        &Shape::Box {
            side: 1,
            label: "x".into(),
        },
        r#"{"Box":{"side":1,"label":"x"}}"#,
        "{\n  \"Box\": {\n    \"side\": 1,\n    \"label\": \"x\"\n  }\n}",
    );
    pin_typed(
        &Shape::Nothing {},
        r#"{"Nothing":{}}"#,
        "{\n  \"Nothing\": {}\n}",
    );
    pin_typed(&Option::<u8>::None, "null", "null");
    pin_typed(&Vec::<Vec<u8>>::new(), "[]", "[]");
    pin_typed(&Value::Object(vec![]), "{}", "{}");
    pin(
        &(Vec::<u8>::new(), BTreeMap::<String, u8>::new()),
        "[[],{}]",
        "[\n  [],\n  {}\n]",
    );
    let mut map = BTreeMap::new();
    map.insert("b".to_string(), 0.5);
    map.insert("a".to_string(), -2.0);
    pin(
        &map,
        r#"{"a":-2.0,"b":0.5}"#,
        "{\n  \"a\": -2.0,\n  \"b\": 0.5\n}",
    );
    pin_typed(
        &std::time::Duration::new(3, 5),
        r#"{"secs":3,"nanos":5}"#,
        "{\n  \"secs\": 3,\n  \"nanos\": 5\n}",
    );
}

#[test]
fn strings_escape_quotes_backslashes_and_controls() {
    let s =
        "quote \" back \\ nl \n cr \r tab \t bell \u{7} nul \u{0} us \u{1f} del \u{7f} é ü 中 🚀"
            .to_string();
    let want = "\"quote \\\" back \\\\ nl \\n cr \\r tab \\t bell \\u0007 nul \\u0000 us \\u001f del \u{7f} é ü 中 🚀\"";
    pin_typed(&s, want, want);
    pin_typed(&String::new(), r#""""#, r#""""#);
}

#[test]
fn floats_keep_their_point_and_nan_is_null() {
    let floats = vec![1.0f64, -0.0, 0.1, 1e15, 1e-7, -3.25];
    pin_typed(
        &floats,
        "[1.0,-0.0,0.1,1000000000000000,0.0000001,-3.25]",
        "[\n  1.0,\n  -0.0,\n  0.1,\n  1000000000000000,\n  0.0000001,\n  -3.25\n]",
    );
    // -0.0 keeps its sign through the text.
    let back: Vec<f64> = from_str("[-0.0]").unwrap();
    assert!(back[0].is_sign_negative());
    pin(&f64::NAN, "null", "null");
    pin(
        &vec![f64::NAN, f64::INFINITY],
        "[null,null]",
        "[\n  null,\n  null\n]",
    );
}

#[test]
fn u64_above_i64_max_wraps() {
    pin(&(u64::MAX - 5), "-6", "-6");
    pin(
        &vec![u64::MAX - 5, 1u64 << 63, i64::MAX as u64],
        "[-6,-9223372036854775808,9223372036854775807]",
        "[\n  -6,\n  -9223372036854775808,\n  9223372036854775807\n]",
    );
    pin_typed(
        &(i64::MAX as u64),
        "9223372036854775807",
        "9223372036854775807",
    );
}
