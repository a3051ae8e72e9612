#include "ld/serve/protocol.hpp"

#include "prob/convolve.hpp"
#include "support/build_info.hpp"
#include "support/cpu_features.hpp"

namespace ld::serve {

std::string_view error_code_name(ErrorCode code) noexcept {
    switch (code) {
        case ErrorCode::BadRequest: return "bad_request";
        case ErrorCode::UnknownMethod: return "unknown_method";
        case ErrorCode::Overloaded: return "overloaded";
        case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
        case ErrorCode::NotFound: return "not_found";
        case ErrorCode::Conflict: return "conflict";
        case ErrorCode::ShuttingDown: return "shutting_down";
        case ErrorCode::Internal: return "internal";
    }
    return "internal";
}

Request parse_request(std::string_view line,
                      std::chrono::steady_clock::time_point now) {
    json::Value doc;
    try {
        doc = json::parse(line);
    } catch (const json::Error& e) {
        throw ProtocolError(ErrorCode::BadRequest, std::string("bad JSON: ") + e.what());
    }
    if (!doc.is_object()) {
        throw ProtocolError(ErrorCode::BadRequest, "request must be a JSON object");
    }

    Request request;
    request.admitted_at = now;
    if (const json::Value* id = doc.find("id")) {
        if (!id->is_string() && !id->is_number() && !id->is_null()) {
            throw ProtocolError(ErrorCode::BadRequest, "id must be a string or number");
        }
        request.id = *id;
    }
    const json::Value* method = doc.find("method");
    if (!method || !method->is_string() || method->as_string().empty()) {
        throw ProtocolError(ErrorCode::BadRequest, "missing method");
    }
    request.method = method->as_string();
    if (const json::Value* params = doc.find("params")) {
        if (!params->is_object() && !params->is_null()) {
            throw ProtocolError(ErrorCode::BadRequest, "params must be an object");
        }
        request.params = *params;
    }
    if (const json::Value* deadline = doc.find("deadline_ms")) {
        if (!deadline->is_number() || deadline->as_number() < 0) {
            throw ProtocolError(ErrorCode::BadRequest,
                                "deadline_ms must be a non-negative number");
        }
        request.deadline =
            now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(deadline->as_number()));
    }
    return request;
}

json::Value id_of_line(std::string_view line) noexcept {
    try {
        const json::Value doc = json::parse(line);
        if (doc.is_object()) {
            if (const json::Value* id = doc.find("id")) return *id;
        }
    } catch (...) {
    }
    return json::Value();
}

std::string render_result(const json::Value& id, json::Object result) {
    json::Object response;
    response.emplace("id", id);
    response.emplace("ok", json::Value(true));
    response.emplace("result", json::Value(std::move(result)));
    return json::dump(json::Value(std::move(response)));
}

std::string render_error(const json::Value& id, ErrorCode code,
                         const std::string& message) {
    json::Object error;
    error.emplace("code", json::Value(std::string(error_code_name(code))));
    error.emplace("message", json::Value(message));
    json::Object response;
    response.emplace("id", id);
    response.emplace("ok", json::Value(false));
    response.emplace("error", json::Value(std::move(error)));
    return json::dump(json::Value(std::move(response)));
}

std::string render_handshake() {
    json::Object handshake;
    handshake.emplace("schema", json::Value(std::string(kSchema)));
    handshake.emplace("server", json::Value(std::string("liquidd")));
    handshake.emplace("build", support::build_info_json());
    // Active tally-kernel tier, so recorded eval results are attributable
    // to a lane width (bit-identical across tiers, but attribution is
    // part of the reproducibility story).
    handshake.emplace(
        "simd", json::Value(std::string(support::simd_tier_name(prob::kernel_tier()))));
    json::Array methods;
    for (const char* name :
         {"eval", "instance.load", "instance.info", "instance.patch",
          "instance.state", "metrics", "health", "shutdown"}) {
        methods.emplace_back(std::string(name));
    }
    handshake.emplace("methods", json::Value(std::move(methods)));
    return json::dump(json::Value(std::move(handshake)));
}

void bad_param(const std::string& key, const std::string& what) {
    throw ProtocolError(ErrorCode::BadRequest, "params." + key + ": " + what);
}

const json::Value& require_param(const json::Value& params, const std::string& key) {
    if (!params.is_object()) {
        throw ProtocolError(ErrorCode::BadRequest, "params object required");
    }
    const json::Value* value = params.find(key);
    if (!value) bad_param(key, "missing");
    return *value;
}

std::string string_param(const json::Value& params, const std::string& key) {
    const json::Value& value = require_param(params, key);
    if (!value.is_string() || value.as_string().empty()) {
        bad_param(key, "expected a non-empty string");
    }
    return value.as_string();
}

std::size_t count_param(const json::Value& params, const std::string& key,
                        const election::Range& range) {
    const json::Value& value = require_param(params, key);
    if (!value.is_number()) bad_param(key, "expected a number");
    try {
        return election::require_count(value.as_number(), range);
    } catch (const election::OptionError& e) {
        bad_param(key, e.what());
    }
}

double number_param(const json::Value& params, const std::string& key,
                    const election::Range& range) {
    const json::Value& value = require_param(params, key);
    if (!value.is_number()) bad_param(key, "expected a number");
    try {
        return election::require_number(value.as_number(), range);
    } catch (const election::OptionError& e) {
        bad_param(key, e.what());
    }
}

void read_params(const json::Value& params, election::EvalSettings& out,
                 std::initializer_list<std::string_view> names) {
    try {
        election::read_serve_params(params, out, names);
    } catch (const election::OptionError& e) {
        bad_param(e.field(), e.what());
    }
}

}  // namespace ld::serve
