// `panic-free-decode` admits no waiver. Scanned under a synthetic
// `crates/ml/src/persist/...` label: each annotation below is reported
// itself, and so is the violation it tries to cover.

fn decode(bytes: &[u8]) -> u64 {
    // lint: allow(panic-free-decode) — the caller checked the length
    let declared = u64::from_le_bytes(bytes[12..20].try_into().unwrap_or([0; 8]));
    declared
}

fn kind(bytes: &[u8]) -> u8 {
    bytes.get(10).copied().unwrap() // lint: allow(panic-free-decode) — never empty
}
