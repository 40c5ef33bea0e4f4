#include "ir/pass.h"

#include <stdexcept>
#include <utility>

namespace tictac::ir {

PassPipeline& PassPipeline::Add(std::shared_ptr<const Pass> pass) {
  if (!pass) {
    throw std::invalid_argument("ir: cannot add a null pass to a pipeline");
  }
  passes_.push_back(std::move(pass));
  return *this;
}

Module PassPipeline::Run(Module module, const PipelineOptions& options) const {
  if (options.check_invariants) module.Validate();
  for (const auto& pass : passes_) {
    pass->Run(module);
    if (options.check_invariants) {
      try {
        module.Validate();
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("ir: invariant violated after pass '" +
                                    pass->name() + "': " + e.what());
      }
    }
    if (options.dump) options.dump(pass->name(), module);
  }
  return module;
}

std::vector<std::string> PassPipeline::names() const {
  std::vector<std::string> out;
  out.reserve(passes_.size());
  for (const auto& pass : passes_) out.push_back(pass->name());
  return out;
}

}  // namespace tictac::ir
