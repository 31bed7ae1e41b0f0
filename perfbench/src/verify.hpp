// Response checks shared by the workloads. Each returns "" when the
// response is right and a short reason when it is not.
#pragma once

#include <string>

#include "http/message.hpp"
#include "json/parse.hpp"
#include "json/value.hpp"

namespace perfbench {

/// Path part of a request target (the query stripped).
inline std::string PathOf(const std::string& target) {
  return target.substr(0, target.find('?'));
}

/// Expects `status` and, for a 2xx with a body, a JSON document whose
/// @odata.id is `path`; the parsed document lands in `doc`.
inline std::string CheckDocument(const ofmf::http::Response& response, int status,
                                 const std::string& path, ofmf::json::Json* doc) {
  if (response.status != status) {
    return "status " + std::to_string(response.status) + ", want " + std::to_string(status);
  }
  auto parsed = ofmf::json::Parse(response.body.view());
  if (!parsed.ok()) return "body is not JSON";
  if (!parsed->is_object()) return "body is not a JSON object";
  const std::string id = parsed->GetString("@odata.id");
  if (id != path) return "@odata.id " + id + ", want " + path;
  if (doc != nullptr) *doc = std::move(*parsed);
  return "";
}

/// A collection document: @odata.id and Members@odata.count as expected,
/// and a Members array of that length.
inline std::string CheckCollection(const ofmf::http::Response& response,
                                   const std::string& path, long long count) {
  ofmf::json::Json doc;
  std::string why = CheckDocument(response, 200, path, &doc);
  if (!why.empty()) return why;
  const long long got = doc.GetInt("Members@odata.count", -1);
  if (got != count) {
    return "Members@odata.count " + std::to_string(got) + ", want " + std::to_string(count);
  }
  const ofmf::json::Json* members = doc.as_object().Find("Members");
  if (members == nullptr || !members->is_array() ||
      static_cast<long long>(members->as_array().size()) != count) {
    return "Members array length differs from Members@odata.count";
  }
  return "";
}

}  // namespace perfbench
