#include "util/keyvalue.hh"

#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace ecolo {

namespace {

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

} // namespace

util::Result<KeyValueConfig>
KeyValueConfig::tryParse(std::istream &is, const std::string &source_name)
{
    KeyValueConfig config;
    config.sourceName_ = source_name;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const std::string original = line;
        const auto comment = line.find('#');
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            return ECOLO_ERROR(util::ErrorCode::ParseError, source_name,
                               ":", line_no, ": config line has no '=': '",
                               trim(original), "'");
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty()) {
            return ECOLO_ERROR(util::ErrorCode::ParseError, source_name,
                               ":", line_no,
                               ": config line has an empty key: '",
                               trim(original), "'");
        }
        const auto prior = config.values_.find(key);
        if (prior != config.values_.end()) {
            return ECOLO_ERROR(util::ErrorCode::ParseError, source_name,
                               ":", line_no, ": duplicate config key '",
                               key, "' (first set at line ",
                               prior->second.line, ")");
        }
        config.values_[key] = Entry{value, line_no};
    }
    return config;
}

util::Result<KeyValueConfig>
KeyValueConfig::tryParseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "cannot open config file: ", path);
    }
    return tryParse(in, path);
}

KeyValueConfig
KeyValueConfig::parse(std::istream &is)
{
    auto result = tryParse(is);
    if (!result.ok())
        ECOLO_FATAL(result.error().message);
    return result.take();
}

KeyValueConfig
KeyValueConfig::parseFile(const std::string &path)
{
    auto result = tryParseFile(path);
    if (!result.ok())
        ECOLO_FATAL(result.error().message);
    return result.take();
}

void
KeyValueConfig::set(const std::string &key, const std::string &value)
{
    values_[key] = Entry{value, 0};
}

std::map<std::string, std::string>
KeyValueConfig::entries() const
{
    std::map<std::string, std::string> out;
    for (const auto &[key, entry] : values_)
        out.emplace(key, entry.value);
    return out;
}

std::string
KeyValueConfig::locate(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.line == 0)
        return sourceName_;
    return sourceName_ + ":" + std::to_string(it->second.line);
}

util::Result<std::optional<double>>
KeyValueConfig::tryGetDouble(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return std::optional<double>{};
    consumed_.insert(key);
    try {
        std::size_t pos = 0;
        const double v = std::stod(it->second.value, &pos);
        if (pos != it->second.value.size())
            throw std::invalid_argument("trailing junk");
        return std::optional<double>{v};
    } catch (const std::exception &) {
        return ECOLO_ERROR(util::ErrorCode::ParseError, locate(key),
                           ": config key '", key, "' is not a number: '",
                           it->second.value, "'");
    }
}

util::Result<std::optional<long>>
KeyValueConfig::tryGetInt(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return std::optional<long>{};
    consumed_.insert(key);
    try {
        std::size_t pos = 0;
        const long v = std::stol(it->second.value, &pos);
        if (pos != it->second.value.size())
            throw std::invalid_argument("trailing junk");
        return std::optional<long>{v};
    } catch (const std::exception &) {
        return ECOLO_ERROR(util::ErrorCode::ParseError, locate(key),
                           ": config key '", key, "' is not an integer: '",
                           it->second.value, "'");
    }
}

std::optional<double>
KeyValueConfig::getDouble(const std::string &key) const
{
    auto result = tryGetDouble(key);
    if (!result.ok())
        ECOLO_FATAL(result.error().message);
    return result.take();
}

std::optional<long>
KeyValueConfig::getInt(const std::string &key) const
{
    auto result = tryGetInt(key);
    if (!result.ok())
        ECOLO_FATAL(result.error().message);
    return result.take();
}

std::optional<std::string>
KeyValueConfig::getString(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return std::nullopt;
    consumed_.insert(key);
    return it->second.value;
}

std::set<std::string>
KeyValueConfig::unconsumedKeys() const
{
    std::set<std::string> unread;
    for (const auto &[key, entry] : values_) {
        (void)entry;
        if (!consumed_.count(key))
            unread.insert(key);
    }
    return unread;
}

} // namespace ecolo
