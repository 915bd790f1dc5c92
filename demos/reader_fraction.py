"""How many citers actually read the paper they cite?

Prints every factor of one estimate, from the misprint statistics of a
famous condensed-matter paper: 4300 citations, 196 with misprints, only
45 distinct misprint variants.
"""

from citecopy import MisprintTally, corrected_read_fraction

est = corrected_read_fraction(MisprintTally(distinct=45, total=196, citations=4300))

print("Misprint tally: D=45 distinct, T=196 total, N=4300 citations")
print()

# repeated identical misprints can only come from copying someone
# else's reference list, so D readers stand against T-D copiers
print(f"naive read fraction  D/T            = {est.naive_r:.4f}")

# a typical misprint was copied onward this many times
print(f"propagation factor   (T-D)/D        = {est.propagation_factor:.4f}")
print(f"misprint probability D/N            = {est.misprint_prob:.6f}")

# the naive estimate over-counts readers: misprint originators are no
# more likely to have read the paper than anyone else
print(f"copy factor          (T-D)/(D-MT)   = {est.copy_factor:.4f}")
print(f"corrected read fraction (D/T)(N-T)/(N-D) = {est.corrected_r:.4f}")
print()
print(f"Conclusion: only about {est.corrected_r:.0%} of citers appear to have")
print("read the paper; the corrected value equals 1/(1 + copy factor).")
