// Doubles printed and parsed outside the JSON codec. This comment names
// "%.17g" and strtod( without firing the rule; the code below does.
#define HICOND_CHECK(x) ((void)(x))

void format_and_parse(char* buf, double v, const char* text) {
  HICOND_CHECK(buf != nullptr);
  snprintf(buf, 32, "%.17g", v);
  const double back = std::strtod(text, nullptr);
  (void)strtod (text, nullptr);
  snprintf(buf, 48, "%s=%.17g;", text, back);  // a key fragment
}
