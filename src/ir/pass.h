// Pass / PassPipeline: the ordered-rewrite machinery over ir::Module
// (DESIGN.md §10).
//
// A Pass is a named Module -> Module rewrite. A PassPipeline runs an
// ordered list of them, optionally validating module invariants and
// invoking a dump hook after each pass — the debugging story for
// composed scenarios (`tictac_cli lower --dump`). Passes are built by
// their Make*Pass() factories (ir/passes.h).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"

namespace tictac::ir {

class Pass {
 public:
  virtual ~Pass() = default;
  // Stable name, as reported to the dump hook ("pipeline_iters:4").
  virtual std::string name() const = 0;
  // Rewrites the module in place (most passes rebuild storage and move
  // the result back in). Throws std::invalid_argument on inputs that
  // violate the pass's stage or argument contract.
  virtual void Run(Module& module) const = 0;
};

struct PipelineOptions {
  // Run Module::Validate() on the input and after every pass. Off by
  // default: the legacy entry points run the pipeline on every Runner
  // iteration and the lowerings are themselves pinned by tests.
  bool check_invariants = false;
  // Called after each pass with the pass name and the rewritten module
  // (e.g. to print module.DebugSummary() or DebugDump()).
  std::function<void(const std::string& pass, const Module& module)> dump;
};

// An ordered pass list. Order is the contract (DESIGN.md §10): passes
// validate the stage they require and throw on violations, so an
// ill-ordered pipeline fails fast rather than mis-lowering.
class PassPipeline {
 public:
  PassPipeline& Add(std::shared_ptr<const Pass> pass);

  // Runs every pass in order. Returns the module for call chaining.
  Module Run(Module module, const PipelineOptions& options = {}) const;

  std::vector<std::string> names() const;
  std::size_t size() const { return passes_.size(); }

 private:
  std::vector<std::shared_ptr<const Pass>> passes_;
};

}  // namespace tictac::ir
