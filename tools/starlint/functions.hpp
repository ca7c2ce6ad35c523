#pragma once

// Cross-TU function indexing for starlint's call-graph passes.
//
// The indexer walks one file's tokens (SourceFile::tokens()) with a scope
// stack (namespace / class / function / block), classifying every `{` by the
// statement head in front of it, and records:
//   * every function and lambda definition — unqualified name, fully
//     scope-qualified name, 1-based head line, the [body_begin, body_end)
//     byte extent of its body in scrubbed(), and the innermost definition
//     whose body holds it (read off the scope stack);
//   * whether the definition is a hot-path root: the STARLAB_HOTPATH macro
//     token in its head, or a `// starlint:hotpath` marker comment on the
//     body-opening line (lambdas cannot carry a macro);
//   * every `check::Mutex` declaration together with the qualified scope
//     that owns it — the lock-order pass keys mutex identity on
//     `<owner>::<name>` so the many classes whose member is just `mu_` stay
//     distinct;
//   * every non-static data member of a class, struct or union, in
//     declaration order — the option-reachability pass looks for writes.
//
// Still no libclang: the heads are read by rules tuned on this codebase's
// idioms (out-of-class definitions, constructor init lists, trailing return
// types, local annotated structs, lambdas nested in call arguments).
// Preprocessor directive tokens are passed over, so macro definitions with
// unbalanced braces cannot derail the scope tracking.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "source_file.hpp"

namespace starlint {

/// One function (or lambda) definition. Operators are named with their
/// symbol ("operator==", "operator()").
struct FunctionDef {
  /// Unqualified name; lambdas report "<lambda>".
  std::string name;
  /// Scope-qualified name, e.g. "starlab::sgp4::SoaConstants::propagate".
  /// Lambdas get "<enclosing>::<lambda@LINE>".
  std::string qualified;
  /// Index into the file vector the graph was built over.
  std::size_t file_index = 0;
  /// 1-based line of the definition head (the function name token; the `{`
  /// line for lambdas).
  std::size_t line = 0;
  /// Byte offset of the opening '{' in SourceFile::scrubbed().
  std::size_t body_begin = 0;
  /// One past the closing '}' (file end when unbalanced).
  std::size_t body_end = 0;
  /// Start of a constructor's init list (its ':'); body_begin otherwise.
  /// Calls in [init_begin, body_begin) run as part of the function.
  std::size_t init_begin = 0;
  /// The '(' opening the parameter list; body_begin when there is none
  /// (`[] { ... }`).
  std::size_t params_begin = 0;
  /// Index, in the same vector, of the innermost def whose body holds
  /// this one (a lambda's host, a local class method's function); SIZE_MAX
  /// at namespace or class scope.
  std::size_t parent = SIZE_MAX;
  bool hotpath = false;
  /// A member function declared `const`.
  bool is_const = false;
  bool is_lambda = false;
};

/// One mutex declaration (`check::Mutex name;`).
struct MutexDecl {
  std::string name;
  /// Qualified scope that declares it ("...::exec::ThreadPool"); the
  /// lock identity is owner + "::" + name.
  std::string owner;
  std::size_t file_index = 0;
  std::size_t line = 0;
};

/// One non-static data member (`double x = 0.0;`, `int a, b;`).
struct FieldDecl {
  std::string name;
  /// Qualified name of the declaring class ("starlab::ml::ForestConfig").
  std::string owner;
  std::size_t file_index = 0;
  std::size_t line = 0;
};

struct FileIndex {
  std::vector<FunctionDef> functions;
  std::vector<MutexDecl> mutexes;
  std::vector<FieldDecl> fields;
};

/// Index every function definition, mutex declaration and data member in
/// `file`.
/// `file_index` is stamped into the records so multi-file graphs can map
/// back to their sources.
[[nodiscard]] FileIndex index_file(const SourceFile& file,
                                   std::size_t file_index);

}  // namespace starlint
