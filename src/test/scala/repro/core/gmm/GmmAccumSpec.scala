package repro.core.gmm

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Vec

/** Unit tests of the sufficient-statistics accumulators: partition-merge
  * associativity and agreement between the denormalized and factorized
  * accumulation paths on in-memory data.
  */
class GmmAccumSpec extends AnyFunSuite {

  private val k = 2; private val dS = 2; private val dR = 3; private val d = dS + dR
  private val rnd = new scala.util.Random(17)

  private def randomPoint(): (Long, Array[Double], Array[Double], Array[Double], Double) = {
    val fk = rnd.nextInt(5).toLong + 1
    val xs = Array.fill(dS)(rnd.nextGaussian())
    val xr = Array.fill(dR)(rnd.nextGaussian())
    val raw = Array.fill(k)(rnd.nextDouble() + 1e-3)
    val z = raw.sum
    (fk, xs, xr, raw.map(_ / z), rnd.nextGaussian())
  }

  test("GmmAccum merge is order-insensitive (associative + commutative sums)") {
    val pts = Array.fill(60)(randomPoint())
    def accumulate(idx: Seq[Int]): GmmAccum = {
      val a = new GmmAccum(k, d)
      idx.foreach { i =>
        val (_, xs, xr, g, ll) = pts(i)
        a.add(Vec.concat(xs, xr), g, ll)
      }
      a
    }
    val whole = accumulate(pts.indices)
    val merged = accumulate(0 until 20).merge(accumulate(20 until 45)).merge(accumulate(45 until 60))
    assert(whole.n == merged.n)
    assert(math.abs(whole.loglik - merged.loglik) < 1e-9)
    (0 until k).foreach { i =>
      assert(math.abs(whole.nk(i) - merged.nk(i)) < 1e-9)
      assert(Vec.maxAbsDiff(whole.sx(i), merged.sx(i)) < 1e-9)
      assert(whole.sxx(i).maxAbsDiff(merged.sxx(i)) < 1e-9)
    }
  }

  /** R features of keys 1..5 (dense index fk − 1), flat row-major. */
  private def randomR(): Array[Double] = Array.fill(5 * dR)(rnd.nextGaussian())

  private def finished(pts: Seq[(Long, Array[Double], Array[Double], Array[Double], Double)],
                       xr: Array[Double]): GmmAccum = {
    val a = new FGmmAccum(k, dS, nR = 5)
    pts.foreach { case (fk, xs, _, g, ll) => a.add((fk - 1).toInt, xs, g, ll) }
    a.finish(xr, dR)
  }

  test("FGmmAccum merge combines per-FK slots correctly") {
    // Both halves hit the same FKs: partitions finished separately and then
    // merged must equal one partition holding every row.
    val pts = Array.fill(40)(randomPoint())
    val xr = randomR()
    val whole = finished(pts.toSeq, xr)
    val merged = finished(pts.take(15).toSeq, xr).merge(finished(pts.drop(15).toSeq, xr))
    assert(whole.n == merged.n)
    assert(math.abs(whole.loglik - merged.loglik) < 1e-9)
    (0 until k).foreach { i =>
      assert(math.abs(whole.nk(i) - merged.nk(i)) < 1e-9)
      assert(Vec.maxAbsDiff(whole.sx(i), merged.sx(i)) < 1e-9)
      assert(whole.sxx(i).maxAbsDiff(merged.sxx(i)) < 1e-9)
    }
  }

  test("denormalized and factorized accumulators agree on the final model") {
    val pts = Array.fill(100)(randomPoint())
    val xr = randomR()
    def xrOf(fk: Long): Array[Double] = Vec.slice(xr, (fk - 1).toInt * dR, fk.toInt * dR)

    val denorm = new GmmAccum(k, d)
    pts.foreach { case (fk, xs, _, g, ll) => denorm.add(Vec.concat(xs, xrOf(fk)), g, ll) }
    val mD = denorm.toModel
    val mF = finished(pts.toSeq, xr).toModel
    assert(mD.maxAbsDiff(mF) < 1e-9)
  }

  test("toModel yields normalized weights and mean of the weighted points") {
    val a = new GmmAccum(1, 2)
    a.add(Array(1.0, 2.0), Array(1.0), 0.0)
    a.add(Array(3.0, 4.0), Array(1.0), 0.0)
    val m = a.toModel
    assert(m.weights.head === 1.0)
    assert(m.means.head.toSeq == Seq(2.0, 3.0))
    // covariance of {(1,2),(3,4)} with equal weights: var 1 on both dims, cov 1
    assert(math.abs(m.covs.head(0, 0) - 1.0) < 1e-12)
    assert(math.abs(m.covs.head(0, 1) - 1.0) < 1e-12)
  }
}
