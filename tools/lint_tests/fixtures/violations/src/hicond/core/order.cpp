#include <vector>
#include "hicond/core/order.hpp"
#include "hicond/core/floats.hpp"

int order_count() { return 3; }
