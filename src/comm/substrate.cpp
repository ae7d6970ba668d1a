#include "comm/substrate.hpp"

namespace distbc::comm {

std::unique_ptr<Substrate> Substrate::split_by_node() {
  return std::make_unique<Substrate>(comm_.split_by_node());
}

std::unique_ptr<Substrate> Substrate::split_node_leaders() {
  return std::make_unique<Substrate>(comm_.split_node_leaders());
}

}  // namespace distbc::comm
