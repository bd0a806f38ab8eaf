// Fixture: directive hygiene. Linted as crates/store/src/fixture.rs.

struct Reasonless {
    // lint:allow(CD001) //~ CD000
    m: std::collections::HashMap<u64, u64>, //~ CD001
}

// lint:allow(BOGUS, reason = "not a rule id") //~ CD000
fn malformed() {}

// lint:allow(CD003, reason = "suppresses nothing on this line or the next") //~ CD000
fn unused_directive() {}

struct Proper {
    // lint:allow(CD001, reason = "fixture: a used directive is not reported")
    m: std::collections::HashMap<u64, u64>,
}
