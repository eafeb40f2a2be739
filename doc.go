// Package opmap is a Go implementation of the Opportunity Map system
// from "Finding Actionable Knowledge via Automated Comparison"
// (Zhang, Liu, Benkler & Zhou, ICDE 2009): a diagnostic data-mining
// toolkit built on class association rules, rule cubes with OLAP
// operations, a general-impressions miner, and — the paper's
// contribution — an automated comparator that ranks attributes by how
// well they explain the difference between two sub-populations with
// respect to a target class.
//
// The typical pipeline is:
//
//	s, err := opmap.LoadCSVFile("calls.csv", opmap.LoadOptions{Class: "Disposition"})
//	// handle err
//	if err := s.Discretize(opmap.DiscretizeOptions{}); err != nil { ... }
//	if err := s.BuildCubes(); err != nil { ... }
//	cmp, err := s.Compare("Phone-Model", "ph1", "ph2", "dropped-in-progress", opmap.CompareOptions{})
//	// cmp.Top(5) now ranks the attributes that best distinguish the two
//	// phones on the drop rate; cmp.PropertyAttributes() holds the
//	// attributes set aside per Section IV.C of the paper.
//
// Every comparison declares its complete cube working set to the
// engine up front, which materializes all missing cubes in one shared
// dataset scan instead of one scan per pair. Fan-out comparisons —
// Sweep over every significant value pair, or CompareOneVsRestAll over
// every value of the attribute — repeat one working set, so they share
// that one scan too.
//
// DrillDown searches past the one-attribute ranking for condition
// conjunctions: a beam search over rule cubes of three and more
// dimensions that surfaces sub-populations like {Terrain=hilly,
// Signal-Band=weak} whose class confidence exceeds what the pairwise
// comparison predicts, ranked by the paper's contribution measure (or
// lift/conviction via DrillOptions.Measure).
//
// For data too large to load once, BuildSharded cubes row-shards of
// one logical dataset concurrently and merges the partial sessions —
// exactly, since contingency counts are additive — into a session
// equal to a single pass over the concatenated shards. MergeFrom
// folds sessions built elsewhere, and MergeSnapshotFiles /
// LoadShardSnapshots do the same assembly from shard snapshot files
// without the source rows.
//
// All functionality is deterministic given fixed seeds and uses only the
// Go standard library.
package opmap
