"""Seeded inputs the benchmark hands to the program.

Everything here is generated from the workload seed; nothing is
downloaded.  The program only ever sees the arrays or files written here.
"""

import numpy as np


def entry_seed(seed, workload_index, entry):
    """A 32-bit seed for pool entry `entry` of one workload."""
    return int(np.random.SeedSequence([seed, workload_index, entry]).generate_state(1)[0])


def face_images(seed, classes=40, per_class=10, height=112, width=92):
    """Synthetic 8-bit face-like images: (classes * per_class, height, width).

    Each class is a smooth random template (a few Gaussian blobs on a
    vertical gradient); each image shifts it by a few pixels, scales its
    brightness and adds pixel noise, so classes overlap a little and
    clustering accuracy stays below 1.  Images are class-major, like a
    corpus read class folder by class folder.
    """
    g = np.random.default_rng([seed, 0xFACE])
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    images = np.empty((classes * per_class, height, width), dtype=np.uint8)
    for c in range(classes):
        template = 60.0 + 80.0 * yy / height
        for _ in range(6):
            cy, cx = g.uniform(0.15, 0.85) * height, g.uniform(0.15, 0.85) * width
            sy, sx = g.uniform(6.0, 20.0), g.uniform(6.0, 20.0)
            amp = g.uniform(-70.0, 70.0)
            template += amp * np.exp(-((yy - cy) / sy) ** 2 - ((xx - cx) / sx) ** 2)
        for i in range(per_class):
            dy, dx = g.integers(-2, 3, size=2)
            img = np.roll(template, (int(dy), int(dx)), axis=(0, 1))
            img = img * g.uniform(0.95, 1.05) + g.normal(0.0, 10.0, img.shape)
            images[c * per_class + i] = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return images


def write_pgm_tree(root, images, per_class):
    """Write images as binary P5 PGMs in class folders c00, c01, ...

    Returns the total bytes written.
    """
    total = 0
    height, width = images.shape[1:]
    header = f"P5\n{width} {height}\n255\n".encode()
    for idx, img in enumerate(images):
        folder = root / f"c{idx // per_class:02d}"
        folder.mkdir(parents=True, exist_ok=True)
        data = header + img.tobytes()
        (folder / f"{idx % per_class:02d}.pgm").write_bytes(data)
        total += len(data)
    return total
