// Fixture: randomly seeded hashers and wall-clock time sources.
// Linted as crates/store/src/fixture.rs (i.e. outside crates/sim).

fn fresh_hasher() -> std::collections::hash_map::RandomState { //~ CD001
    std::collections::hash_map::RandomState::new() //~ CD001
}

fn digest() -> u64 {
    let h = std::collections::hash_map::DefaultHasher::new(); //~ CD001
    finish(h)
}

fn elapsed() -> u64 {
    let t = std::time::Instant::now(); //~ CD003
    since(t)
}

fn epoch() -> u64 {
    let s = std::time::SystemTime::now(); //~ CD003
    since_epoch(s)
}
