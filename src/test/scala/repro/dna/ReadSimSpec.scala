package repro.dna

import repro.SparkSpec

class ReadSimSpec extends SparkSpec {

  val genome = Dna.genome(Dna.GenomeSpec(5000, longRepeats = 0, shortRepeats = 0), 99)

  test("reads have the requested count and length") {
    val rs = ReadSim.reads(spark, genome,
      ReadSim.ReadSpec(readLen = 80, nReads = 500), seed = 1).collect()
    assert(rs.length == 500)
    assert(rs.forall(_.length == 80))
  }

  test("read generation is deterministic in (seed, index)") {
    def gen(seed: Long) = ReadSim.reads(spark, genome,
      ReadSim.ReadSpec(60, 200), seed).collect().toSeq
    assert(gen(5) == gen(5))
    assert(gen(5) != gen(6))
  }

  test("error-free reads are exact genome substrings (either strand)") {
    val rs = ReadSim.reads(spark, genome,
      ReadSim.ReadSpec(70, 300, errRate = 0, nRate = 0), 2).collect()
    assert(rs.forall(r => genome.contains(r) || genome.contains(Dna.rc(r))))
  }

  test("both strands are sampled") {
    val rs = ReadSim.reads(spark, genome,
      ReadSim.ReadSpec(70, 400, errRate = 0, nRate = 0), 3).collect()
    val fwd = rs.count(genome.contains(_))
    assert(fwd > 100 && fwd < 300, s"fwd=$fwd of 400")
  }

  test("substitution rate is close to the spec") {
    // at 1% per-base error and length 100, P(error-free read) = 0.99^100 ~ 0.366
    val spec = ReadSim.ReadSpec(100, 1000, errRate = 0.01, nRate = 0)
    val rs = ReadSim.reads(spark, genome, spec, 4).collect()
    val exact = rs.count(r => genome.contains(r) || genome.contains(Dna.rc(r)))
    assert(exact > 250 && exact < 500, s"exact=$exact of 1000")
  }

  test("'N' bases appear at roughly the configured rate") {
    val rs = ReadSim.reads(spark, genome,
      ReadSim.ReadSpec(100, 1000, errRate = 0, nRate = 0.01), 5).collect()
    val ns = rs.map(_.count(_ == 'N')).sum
    assert(ns > 400 && ns < 2500, s"ns=$ns of 100000")
  }
}
