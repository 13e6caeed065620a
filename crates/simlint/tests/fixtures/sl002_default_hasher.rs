// Fixture: SL002 — default-hasher collections in simulation state.

use std::collections::{HashMap, HashSet}; // use-lines are exempt

pub struct Bad {
    per_flow: HashMap<u64, u64>,    // SL002: default hasher
    seen: HashSet<u64>,             // SL002: default hasher
}

pub struct Fine {
    // Custom fixed hashers are deterministic and allowed.
    by_seq: HashMap<u64, u64, std::hash::BuildHasherDefault<MyHasher>>,
    cancelled: HashSet<u64, std::hash::BuildHasherDefault<MyHasher>>,
    ordered: std::collections::BTreeMap<u64, u64>,
}

pub struct MyHasher;
