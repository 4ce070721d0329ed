//! result-dropped suppressed fixture: handled Results and a justified
//! `#[expect]` stay silent.
fn save() -> Result<(), String> {
    Ok(())
}

pub fn go() -> Result<(), String> {
    save()?;
    if save().is_err() {
        return Ok(());
    }
    #[expect(
        clippy::let_underscore_must_use,
        reason = "proven best-effort path in this fixture"
    )]
    let _ = save();
    Ok(())
}
