//! The two-cluster k-means and k-medoids baselines of study E10.
//!
//! The paper's related work names k-means and k-medoids as the
//! best-performing unsupervised seizure detectors (Smart & Chen, CIBCB
//! 2015). E10 fits each with two clusters to one record's normalized rows
//! and reads back the cluster of every row; these are the fits it runs.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seizure_ml::MlError;

/// Number of clusters: seizure and non-seizure.
const K: usize = 2;
/// Maximum number of Lloyd iterations of k-means.
const KMEANS_MAX_ITERATIONS: usize = 100;
/// k-means stops once the total squared centroid movement falls below this.
const KMEANS_TOLERANCE: f64 = 1e-6;
/// Maximum number of assignment/update sweeps of k-medoids.
const KMEDOIDS_MAX_SWEEPS: usize = 50;

/// Two fitted cluster centres; a point belongs to the nearest one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Clusters {
    centres: Vec<Vec<f64>>,
}

impl Clusters {
    /// k-means: k-means++ initialization, then Lloyd iterations, drawing
    /// from a ChaCha8 stream seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidDataset`] if `points` is empty or rows have
    /// inconsistent lengths, and [`MlError::InvalidParameter`] if there are
    /// fewer points than clusters.
    pub(crate) fn kmeans(points: &[Vec<f64>], seed: u64) -> Result<Self, MlError> {
        validate_points(points)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut centroids = plus_plus_init(points, &mut rng);
        let mut assignments = vec![0usize; points.len()];

        for _ in 0..KMEANS_MAX_ITERATIONS {
            // Assignment step.
            for (i, p) in points.iter().enumerate() {
                assignments[i] = nearest(p, &centroids).0;
            }
            // Update step.
            let mut new_centroids = vec![vec![0.0; points[0].len()]; K];
            let mut counts = [0usize; K];
            for (p, &a) in points.iter().zip(assignments.iter()) {
                counts[a] += 1;
                for (acc, v) in new_centroids[a].iter_mut().zip(p.iter()) {
                    *acc += v;
                }
            }
            for (centroid, count) in new_centroids.iter_mut().zip(counts.iter()) {
                if *count == 0 {
                    // Re-seed an empty cluster at a random point.
                    let idx = rng.gen_range(0..points.len());
                    *centroid = points[idx].clone();
                } else {
                    for v in centroid.iter_mut() {
                        *v /= *count as f64;
                    }
                }
            }
            let movement: f64 = centroids
                .iter()
                .zip(new_centroids.iter())
                .map(|(a, b)| squared_distance(a, b))
                .sum();
            centroids = new_centroids;
            if movement < KMEANS_TOLERANCE {
                break;
            }
        }
        Ok(Self { centres: centroids })
    }

    /// k-medoids (PAM-style alternating optimization), starting from two
    /// points drawn by a ChaCha8 shuffle seeded with `seed`. Its centres are
    /// data points, so one heavy-tailed artifact cannot drag a centre away
    /// from the data.
    ///
    /// # Errors
    ///
    /// Those of [`Clusters::kmeans`].
    pub(crate) fn kmedoids(points: &[Vec<f64>], seed: u64) -> Result<Self, MlError> {
        validate_points(points)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut all_indices: Vec<usize> = (0..points.len()).collect();
        all_indices.shuffle(&mut rng);
        let mut medoid_indices: Vec<usize> = all_indices[..K].to_vec();
        let medoids = |indices: &[usize]| -> Vec<Vec<f64>> {
            indices.iter().map(|&i| points[i].clone()).collect()
        };

        let mut assignments = vec![0usize; points.len()];
        for _ in 0..KMEDOIDS_MAX_SWEEPS {
            // Assignment step.
            let centres = medoids(&medoid_indices);
            for (i, p) in points.iter().enumerate() {
                assignments[i] = nearest(p, &centres).0;
            }
            // Update step: for each cluster pick the member minimizing the
            // total distance to the other members.
            let mut changed = false;
            for (cluster, medoid) in medoid_indices.iter_mut().enumerate() {
                let members: Vec<usize> = assignments
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &a)| (a == cluster).then_some(i))
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let mut best = (*medoid, f64::INFINITY);
                for &candidate in &members {
                    let cost: f64 = members
                        .iter()
                        .map(|&m| squared_distance(&points[candidate], &points[m]))
                        .sum();
                    if cost < best.1 {
                        best = (candidate, cost);
                    }
                }
                if best.0 != *medoid {
                    *medoid = best.0;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Ok(Self {
            centres: medoids(&medoid_indices),
        })
    }

    /// Index of the centre closest to `point`.
    fn predict(&self, point: &[f64]) -> usize {
        nearest(point, &self.centres).0
    }

    /// Cluster of each of `points`.
    pub(crate) fn predict_batch(&self, points: &[Vec<f64>]) -> Vec<usize> {
        points.iter().map(|p| self.predict(p)).collect()
    }
}

/// Squared Euclidean distance between two equally long vectors.
fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn validate_points(points: &[Vec<f64>]) -> Result<(), MlError> {
    if points.is_empty() {
        return Err(MlError::InvalidDataset {
            detail: "clustering needs at least one point".to_string(),
        });
    }
    let width = points[0].len();
    if width == 0 || points.iter().any(|p| p.len() != width) {
        return Err(MlError::InvalidDataset {
            detail: "points must be non-empty and of equal dimension".to_string(),
        });
    }
    if points.len() < K {
        return Err(MlError::InvalidParameter {
            name: "k",
            reason: format!("k must lie in [1, {}], got {K}", points.len()),
        });
    }
    Ok(())
}

/// Index of the centre closest to `point` (the first on ties) and its
/// squared distance.
fn nearest(point: &[f64], centres: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centres.iter().enumerate() {
        let d = squared_distance(point, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

fn plus_plus_init<R: Rng>(points: &[Vec<f64>], rng: &mut R) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(K);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < K {
        let distances: Vec<f64> = points.iter().map(|p| nearest(p, &centroids).1).collect();
        let total: f64 = distances.iter().sum();
        if total <= 0.0 {
            // All points coincide with existing centroids; duplicate one.
            centroids.push(points[rng.gen_range(0..points.len())].clone());
            continue;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = points.len() - 1;
        for (i, d) in distances.iter().enumerate() {
            if target <= *d {
                chosen = i;
                break;
            }
            target -= d;
        }
        centroids.push(points[chosen].clone());
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kmeans_blobs() -> Vec<Vec<f64>> {
        let mut points = Vec::new();
        for i in 0..30 {
            let j = (i * 17 % 7) as f64 / 7.0 - 0.5;
            points.push(vec![j * 0.5, -j * 0.3]);
            points.push(vec![10.0 + j * 0.5, 10.0 - j * 0.4]);
        }
        points
    }

    fn kmedoids_blobs() -> Vec<Vec<f64>> {
        let mut points = Vec::new();
        for i in 0..25 {
            let j = (i * 13 % 11) as f64 / 11.0 - 0.5;
            points.push(vec![j, j * 0.5]);
            points.push(vec![6.0 + j, 6.0 - j]);
        }
        points
    }

    /// Both blob helpers interleave their blobs: every even point must share
    /// point 0's cluster and every odd point point 1's, a different one.
    fn assert_separates(clusters: &[usize]) {
        assert_ne!(clusters[0], clusters[1]);
        for (i, &c) in clusters.iter().enumerate() {
            assert_eq!(c, clusters[i % 2], "point {i}");
        }
    }

    #[test]
    fn kmeans_separates_two_well_separated_blobs() {
        let points = kmeans_blobs();
        let model = Clusters::kmeans(&points, 3).unwrap();
        assert_ne!(model.predict(&[0.0, 0.0]), model.predict(&[10.0, 10.0]));
        assert_separates(&model.predict_batch(&points));
    }

    #[test]
    fn kmeans_assigns_every_point_to_one_of_two_clusters_at_every_seed() {
        for seed in 0u64..200 {
            let points: Vec<Vec<f64>> = (0..30)
                .map(|i| {
                    vec![
                        (i as f64 * 0.7 + seed as f64).sin() * 10.0,
                        (i as f64 * 1.3).cos() * 10.0,
                    ]
                })
                .collect();
            let model = Clusters::kmeans(&points, seed).unwrap();
            assert_eq!(model.centres.len(), K, "seed {seed}");
            assert!(points.iter().all(|p| model.predict(p) < K), "seed {seed}");
        }
    }

    #[test]
    fn kmeans_on_identical_points_centres_both_clusters_on_them() {
        let points = vec![vec![3.0, 3.0]; 10];
        let model = Clusters::kmeans(&points, 0).unwrap();
        assert_eq!(model.centres, vec![vec![3.0, 3.0]; K]);
    }

    #[test]
    fn kmedoids_separates_two_blobs_with_data_points_as_centres() {
        let points = kmedoids_blobs();
        for seed in [1, 2] {
            let model = Clusters::kmedoids(&points, seed).unwrap();
            assert_ne!(model.predict(&[0.0, 0.0]), model.predict(&[6.0, 6.0]));
            assert_separates(&model.predict_batch(&points));
            assert!(model.centres.iter().all(|m| points.contains(m)));
        }
    }

    #[test]
    fn kmedoids_is_robust_to_a_far_outlier() {
        // A medoid is a data point, so one extreme outlier cannot drag both
        // centres off the blobs.
        let mut points = kmedoids_blobs();
        points.push(vec![1e6, 1e6]);
        let model = Clusters::kmedoids(&points, 1).unwrap();
        let norm = |m: &Vec<f64>| m.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(model.centres.iter().any(|m| norm(m) < 100.0));
    }

    #[test]
    fn fits_are_deterministic_in_seed_and_batches_match_single_predictions() {
        let points = kmeans_blobs();
        assert_eq!(Clusters::kmeans(&points, 7), Clusters::kmeans(&points, 7));
        let model = Clusters::kmeans(&points, 2).unwrap();
        let batch = model.predict_batch(&points);
        assert!(points
            .iter()
            .zip(&batch)
            .all(|(p, &c)| model.predict(p) == c));

        let points = kmedoids_blobs();
        let model = Clusters::kmedoids(&points, 5).unwrap();
        assert_eq!(model, Clusters::kmedoids(&points, 5).unwrap());
        let batch = model.predict_batch(&points);
        assert!(points
            .iter()
            .zip(&batch)
            .all(|(p, &c)| model.predict(p) == c));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let ragged = [vec![1.0], vec![1.0, 2.0]];
        let single = [vec![1.0]];
        for points in [&[][..], &ragged[..], &single[..]] {
            assert!(Clusters::kmeans(points, 0).is_err());
            assert!(Clusters::kmedoids(points, 0).is_err());
        }
    }
}
