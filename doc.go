// Package repro is a from-scratch Go reproduction of "PaSh: Light-touch
// Data-Parallel Shell Processing" (EuroSys 2021).
//
// The public API is package repro/pash, and examples/quickstart is its
// tour. DESIGN.md at the repository root is the map of the system: one
// paragraph per mechanism, each naming the paper section it reproduces
// and the test or ledger row that witnesses it. internal/runtime/README.md
// states the contracts: block ownership, the wire format and the failure
// model. bench/README.md describes the repository benchmark.
//
// This package holds only repository-level tests: the ledger's count gate
// (TestLedgerCounts), the check that DESIGN.md cites only tests and
// ledger rows that exist (TestDesignCitations), and the cap on the names
// package pash exports (TestPublicSurface).
package repro
