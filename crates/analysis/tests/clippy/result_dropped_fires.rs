//! result-dropped firing fixture: a Result discarded via `let _ =`
//! (clippy `let_underscore_must_use`) and as a bare statement (rustc
//! `unused_must_use`).  Expected: line 9 and line 10.
fn save() -> Result<(), String> {
    Ok(())
}

pub fn go() {
    let _ = save();
    save();
}
