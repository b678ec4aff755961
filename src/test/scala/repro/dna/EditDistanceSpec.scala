package repro.dna

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class EditDistanceSpec extends AnyFunSuite {

  def randomSeq(rnd: Random, len: Int): String =
    (0 until len).map(_ => "ACGT"(rnd.nextInt(4))).mkString

  test("full: known cases") {
    assert(EditDistance.full("", "") == 0)
    assert(EditDistance.full("A", "") == 1)
    assert(EditDistance.full("", "ACG") == 3)
    assert(EditDistance.full("ACGT", "ACGT") == 0)
    assert(EditDistance.full("ACGT", "AGGT") == 1)   // substitution
    assert(EditDistance.full("ACGT", "ACGGT") == 1)  // insertion
    assert(EditDistance.full("ACGT", "AGT") == 1)    // deletion
    assert(EditDistance.full("AAAA", "TTTT") == 4)
  }

  test("full is symmetric") {
    val rnd = new Random(20)
    for (_ <- 1 to 100) {
      val a = randomSeq(rnd, rnd.nextInt(30))
      val b = randomSeq(rnd, rnd.nextInt(30))
      assert(EditDistance.full(a, b) == EditDistance.full(b, a))
    }
  }

  test("capped equals full whenever full <= cap") {
    val rnd = new Random(21)
    for (_ <- 1 to 300) {
      val a = randomSeq(rnd, rnd.nextInt(40))
      val b = randomSeq(rnd, rnd.nextInt(40))
      val cap = rnd.nextInt(8)
      val f = EditDistance.full(a, b)
      val c = EditDistance.capped(a, b, cap)
      if (f <= cap) assert(c == f, s"a=$a b=$b cap=$cap")
      else assert(c > cap, s"a=$a b=$b cap=$cap full=$f capped=$c")
    }
  }

  test("capped with mutations stays under threshold") {
    val rnd = new Random(22)
    for (_ <- 1 to 50) {
      val a = randomSeq(rnd, 100 + rnd.nextInt(100))
      // apply 3 substitutions
      val chars = a.toCharArray
      for (_ <- 1 to 3) {
        val i = rnd.nextInt(chars.length)
        chars(i) = Dna.char((Dna.code(chars(i)) + 1) & 3)
      }
      val b = new String(chars)
      assert(EditDistance.capped(a, b, 5) <= 3)
    }
  }

  test("capped short-circuits on large length difference") {
    assert(EditDistance.capped("A" * 100, "A" * 50, 5) > 5)
  }

  test("capped handles empty strings") {
    assert(EditDistance.capped("", "", 3) == 0)
    assert(EditDistance.capped("ACG", "", 3) == 3)
    assert(EditDistance.capped("", "ACGT", 3) > 3)
  }
}
