//! [`escape`] and [`Json::parse`] are inverses: any string a writer embeds
//! reads back unchanged.

use proptest::prelude::*;
use swapcodes_json::{escape, Json};

/// One Unicode scalar, drawn as often from the characters `escape`
/// rewrites (controls, `"` and `\`) as from printable ASCII and each
/// non-ASCII plane range.
fn scalar() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        Just(u32::from('"')),
        Just(u32::from('\\')),
        0x20u32..0x80,
        0x80u32..0xD800,
        0xE000u32..0x11_0000,
    ]
    .prop_map(|c| char::from_u32(c).expect("surrogates are excluded"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_string_round_trips_through_escape(chars in prop::collection::vec(scalar(), 0..48)) {
        let s: String = chars.into_iter().collect();
        let doc = format!("\"{}\"", escape(&s));
        prop_assert_eq!(Json::parse(&doc), Ok(Json::Str(s)));
    }
}
