// Corpus bench: one simulation knob that README.md documents and one that
// it does not.
int Seed() { return EnvInt("CFS_SIM_SEED", 42); }
int Undocumented() { return EnvInt("CFS_SIM_UNDOC", 0); }
