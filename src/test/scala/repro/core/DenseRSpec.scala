package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Unit tests of R's dense form: the primitive key index and the flat
  * feature array the factorized algorithms broadcast once per fit.
  */
class DenseRSpec extends AnyFunSuite {

  test("KeyIndex maps every key to its position and unknown keys to -1") {
    val rnd = new scala.util.Random(3)
    val keys = (Seq(0L, -1L, Long.MinValue, Long.MaxValue) ++ (1L to 2000L) ++
      Seq.fill(500)(rnd.nextLong())).distinct.toArray
    val idx = KeyIndex(keys)
    assert(idx.size == keys.length)
    keys.indices.foreach(i => assert(idx.indexOf(keys(i)) == i))
    Seq(2001L, -2L, 1L << 40).filterNot(keys.contains).foreach(k => assert(idx.indexOf(k) == -1))
    assert(KeyIndex(Array.empty[Long]).indexOf(1L) == -1)
  }

  test("a duplicate R key is rejected and named") {
    val e = intercept[IllegalArgumentException](KeyIndex(Array(5L, 9L, 7L, 9L)))
    assert(e.getMessage.contains("rid=9"))
    val e2 = intercept[IllegalArgumentException](
      DenseR(Array(3L -> Array(1.0), 4L -> Array(2.0), 3L -> Array(3.0)), dR = 1))
    assert(e2.getMessage.contains("rid=3"))
  }

  test("DenseR flattens features in key order and rejects a ragged tuple") {
    val r = DenseR(Array(10L -> Array(1.0, 2.0), 7L -> Array(3.0, 4.0)), dR = 2)
    assert(r.n == 2)
    assert(r.xr.toSeq == Seq(1.0, 2.0, 3.0, 4.0))
    assert(r.index.indexOf(7L) == 1)
    val e = intercept[IllegalArgumentException](
      DenseR(Array(1L -> Array(1.0, 2.0), 2L -> Array(3.0)), dR = 2))
    assert(e.getMessage.contains("rid=2"))
  }
}
