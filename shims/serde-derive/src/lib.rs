//! Patch target for `benchmark/Cargo.toml` only, deleted with its `[patch]` lines (shims/README.md).
