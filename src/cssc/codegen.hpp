// C++ code generation from parsed `#pragma css` declarations: the back half
// of the paper's source-to-source compiler. For every task we emit
//
//  * a registration helper (carrying the highpriority clause), and
//  * a typed spawn adapter that wraps each parameter in the smpss::in /
//    out / inout / value / opaque call the runtime expects — sizes from the
//    dimension specifiers, regions from the region specifiers, void*
//    parameters opaque, scalars by value.
//
// The generated file is self-contained C++ that compiles against
// runtime/runtime.hpp (see examples/cssc_pipeline for the end-to-end use).
#pragma once

#include <string>

#include "cssc/pragma_parser.hpp"

namespace smpss::cssc {

struct CodegenOptions {
  std::string ns = "css_generated";  ///< namespace for the emitted helpers
};

/// Render the adapters for a whole translation unit.
std::string generate(const TranslationUnit& tu, const CodegenOptions& opts = {});

/// Render the adapter for a single task (exposed for tests).
std::string generate_task(const TaskDecl& task);

}  // namespace smpss::cssc
