// Dataflow over the CFG: per-statement def/use fact extraction plus the
// iterative fixpoint passes the checkers consume. All facts are variable
// names (strings) — the same level of abstraction the paper's 60
// features work at, but now path-aware: "x was freed and not reassigned
// on some path reaching this use", "p was never null-tested before this
// dereference", and so on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/cfg.h"

namespace patchdb::analysis {

/// A set of variable names, iterated in sorted order like std::set.
/// Fact sets hold a handful of names, so a sorted vector is cheaper than
/// a node-based set for everything the passes do with them: copies,
/// merges and erases.
class FactSet {
 public:
  using const_iterator = std::vector<std::string>::const_iterator;

  FactSet() = default;
  template <class It>
  FactSet(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  /// Adds `name`; false when it was already present.
  bool insert(const std::string& name) {
    const auto it = std::lower_bound(names_.begin(), names_.end(), name);
    if (it != names_.end() && *it == name) return false;
    names_.insert(it, name);
    return true;
  }
  /// Adds every name of `other` in one sorted merge.
  void merge(const FactSet& other) {
    if (other.names_.empty()) return;
    if (names_.empty()) {
      names_ = other.names_;
      return;
    }
    std::vector<std::string> merged;
    merged.reserve(names_.size() + other.names_.size());
    std::set_union(std::make_move_iterator(names_.begin()),
                   std::make_move_iterator(names_.end()), other.names_.begin(),
                   other.names_.end(), std::back_inserter(merged));
    names_ = std::move(merged);
  }
  /// Removes `name`; returns how many were removed (0 or 1).
  std::size_t erase(const std::string& name) {
    const auto it = std::lower_bound(names_.begin(), names_.end(), name);
    if (it == names_.end() || *it != name) return 0;
    names_.erase(it);
    return 1;
  }
  std::size_t count(const std::string& name) const {
    return std::binary_search(names_.begin(), names_.end(), name) ? 1 : 0;
  }

  const_iterator begin() const noexcept { return names_.begin(); }
  const_iterator end() const noexcept { return names_.end(); }
  std::size_t size() const noexcept { return names_.size(); }

  friend bool operator==(const FactSet&, const FactSet&) = default;

 private:
  std::vector<std::string> names_;  // sorted, unique
};

/// Security-relevant facts of one statement, recovered from its tokens.
struct StatementFacts {
  FactSet defs;          // variables assigned (=, compound assign, ++/--)
  FactSet uses;          // identifiers read (excludes call names and decl types)
  FactSet decls;         // variables declared here
  FactSet decls_uninit;  // declared without an initializer
  FactSet derefs;        // *p, p->f, p[i] dereference the pointer p
  FactSet index_vars;    // buf[i]: the index expression's variables (i)
  FactSet freed;         // arguments of free-like calls
  FactSet alloc_defs;    // x = malloc/kmalloc/strdup/... : x
  FactSet addr_taken;    // &x (x may be initialized through the pointer)
  FactSet null_tested;   // condition: x == NULL, !x, if (x), assert(x)
  FactSet bound_tested;  // condition: x < n, n >= len, ... (both sides)
  std::vector<std::string> calls;  // called function names, in order
  /// Single-spaced text of each argument of each call, aligned with `calls`.
  std::vector<std::vector<std::string>> call_args;
};

StatementFacts facts_for(const Statement& stmt);

/// Per-block fact sets at block entry (index = block id). Exit sets are
/// recomputed on demand by replaying the block's statements.
struct FlowSets {
  std::vector<FactSet> entry;
};

/// Everything the checkers need for one function.
struct DataflowResult {
  /// facts[block][statement] aligned with cfg.blocks[b].statements.
  std::vector<std::vector<StatementFacts>> facts;
  FlowSets maybe_uninit;     // declared, no assignment yet on some path
  FlowSets maybe_freed;      // freed, not reassigned, on some path
  FlowSets unchecked_alloc;  // allocation result never null-tested yet
  FlowSets unguarded_params; // pointer params with no null test yet
  FlowSets bound_guarded;    // vars constrained by a relational condition
  /// Classic backward liveness: variables live at block exit.
  std::vector<FactSet> live_out;
};

DataflowResult analyze_dataflow(const Cfg& cfg);

/// Per-statement facts of every block, aligned with cfg.blocks (the
/// first half of analyze_dataflow, exposed so interprocedural callers
/// can enrich the facts before solving).
std::vector<std::vector<StatementFacts>> statement_facts(const Cfg& cfg);

/// Run the fixpoint passes over already-populated (possibly enriched)
/// facts; `partial.facts` must be aligned with cfg.blocks. The second
/// half of analyze_dataflow.
DataflowResult resolve_dataflow(const Cfg& cfg, DataflowResult partial);

/// The five forward sets as a block-local cursor: checkers replay a
/// block statement-by-statement, inspecting the state *before* each
/// statement, using exactly the transfer functions the solver used.
struct FlowState {
  FactSet maybe_uninit;
  FactSet maybe_freed;
  FactSet unchecked_alloc;
  FactSet unguarded_params;
  FactSet bound_guarded;
};

FlowState state_at_entry(const DataflowResult& dataflow, std::size_t block);
void advance(FlowState& state, const StatementFacts& facts);

/// Vocabulary shared by the fact extractor, the checkers, and the
/// interprocedural summary pass.
bool is_allocator(std::string_view name);
bool is_deallocator(std::string_view name);

/// Allocation-size argument position of a raw allocator; -1 when `name`
/// is not one (calloc is excluded: its two-argument form is the fix).
int alloc_size_arg(std::string_view name);

}  // namespace patchdb::analysis
