// Fixture: rule-trigger text inside strings and comments must never
// produce diagnostics.  Expected: no diagnostics.

/* A block comment mentioning a.partial_cmp(&b) and m.lock(); m.lock(). */

/* nested /* block /* comments */ with x.partial_cmp(&y) inside */ stay comments */

pub fn docs() -> Vec<String> {
    vec![
        // Plain strings with trigger text and a fake line comment marker.
        "call a.partial_cmp(&b) // not a comment, still in the string".to_string(),
        "let g = m.lock(); out.flush(); m.lock()".to_string(),
        // Raw strings: hashes guard embedded quotes and trigger text.
        r#"x.partial_cmp(&y) says "hello" m.lock()"#.to_string(),
        r##"outer r#"inner a.partial_cmp(&b)"# still raw"##.to_string(),
        // Byte strings and chars.
        String::from_utf8_lossy(b"m.lock(); m.lock()").to_string(),
        // A char literal that looks like a quote opener, and lifetimes
        // that must not be mistaken for char literals.
        '"'.to_string(),
    ]
}

pub fn lifetimes<'a, 'b>(x: &'a str, _y: &'b str) -> &'a str {
    let _escaped = '\'';
    let _unicode = '\u{1F600}';
    x
}
