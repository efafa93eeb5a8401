//! The root package carries the repository's examples (`examples/`) and
//! integration tests (`tests/`). They import the workspace crates by name;
//! this library exists only because Cargo needs a target.
