// A module no binary, bench or fuzz driver includes.
#pragma once
int orphan_value();
