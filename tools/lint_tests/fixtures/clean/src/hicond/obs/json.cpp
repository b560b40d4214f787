// Stand-in for the real obs/json.cpp: the JSON codec is where doubles are
// formatted and parsed, so double-codec stays quiet here by path exemption.
void codec(char* buf, double v, const char* text) {
  snprintf(buf, 32, "%.17g", v);
  (void)strtod(text, nullptr);
}
