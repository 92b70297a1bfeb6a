#include "testing/split_groups.hpp"

namespace hpfc::testing {

namespace {

void split(codegen::OpList& ops, int& next_group) {
  for (codegen::Op& op : ops) {
    if (op.kind == codegen::OpKind::Copy) op.copy_group = next_group++;
    split(op.body, next_group);
  }
}

}  // namespace

void split_copy_groups(codegen::RuntimeProgram& code) {
  int next_group = 0;
  split(code.at_entry, next_group);
  for (codegen::OpList& ops : code.at_node) split(ops, next_group);
  split(code.at_exit, next_group);
  code.copy_groups = next_group;
}

}  // namespace hpfc::testing
