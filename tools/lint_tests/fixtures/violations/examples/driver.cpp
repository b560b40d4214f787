// module-reach entry point: reaches core/order.hpp and util/parallel.hpp
// directly and core/floats.hpp through order.hpp's sibling order.cpp;
// core/orphan.hpp is reached by nothing.
#include "hicond/core/order.hpp"
#include "hicond/core/state.hpp"
#include "hicond/util/parallel.hpp"

int main() { return order_count(); }
