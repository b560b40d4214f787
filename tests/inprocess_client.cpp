#include "inprocess_client.hpp"

#include <utility>

#include "hicond/util/common.hpp"

namespace hicond::serve {

InProcessClient::InProcessClient(const ServerOptions& options)
    : core_(options) {}

std::string InProcessClient::call_raw(const std::string& line) {
  if (auto immediate = core_.submit(line)) {
    return *std::move(immediate);
  }
  // The queue held only this request (call() semantics), so the last
  // response drained is the one that answers it.
  std::string last;
  bool any = false;
  while (auto response = core_.step()) {
    last = *std::move(response);
    any = true;
  }
  HICOND_CHECK(any, "server queue drained without producing a response");
  return last;
}

obs::JsonValue InProcessClient::call(const std::string& line) {
  return obs::parse_json(call_raw(line));
}

std::optional<std::string> InProcessClient::submit_only(
    const std::string& line) {
  return core_.submit(line);
}

std::vector<std::string> InProcessClient::drain() {
  std::vector<std::string> responses;
  while (auto response = core_.step()) {
    responses.push_back(*std::move(response));
  }
  return responses;
}

}  // namespace hicond::serve
