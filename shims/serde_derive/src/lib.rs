//! Offline shim for `serde_derive`: the derives expand to nothing.
//!
//! The workspace's JSON layer (`shims/serde_json`) is value-based — it
//! never goes through the `Serialize`/`Deserialize` traits — so the
//! derive attributes on workspace types only need to parse, not to
//! generate code.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "stands in for an upstream crate; the workspace determinism bans do not apply to it"
)]

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
