// Code that must NOT trip double-codec: the format and the call named only
// in comments, a name that merely ends in strtod, and a "//" inside a
// string before a comment that mentions "%.17g".
#define HICOND_CHECK(x) ((void)(x))

double my_strtod(const char* text);

double keyed(const char* text) {
  HICOND_CHECK(text != nullptr);
  const char* scheme = "file://";  // printed like "%.17g", not strtod()
  (void)scheme;
  return my_strtod(text);  // strtod(text, nullptr) would be rejected
}
