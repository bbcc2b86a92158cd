"""trishare: involution-cipher file sealing with three-party key sharing.

A file is sealed under a fresh secret; the secret is split into points
on a degree-2 polynomial over Z_p so that a request needs the
organization server, the data owner, and one authorized receiver to each
contribute a point (whoever reads the store's files needs none of them;
see the README's Security notes).  Lagrange interpolation recovers the
secret, a binding code ties the polynomial to the file, and revocation
re-randomizes the polynomial without touching the sealed data.

The benchmarks and the pinned worked example live in `trishare.bench`,
which this package does not import.
"""

from .errors import Error
from .field import (FieldModulus, InvalidModulus, InvalidPolynomial, M61,
                    SecretPolynomial, ZeroInverse, default_modulus,
                    integer_nth_root, is_prime, mod_inverse, modulus_for,
                    poly_eval)
from .hashing import fnv1a64
from .keystream import InvalidParams, MaskSchedule, xor_mask
from .cipher import (BadHeader, CipherEnvelope, CipherKey, EmptyFilename,
                     InexactRoot, KeyOutOfRange, LengthMismatch, Mode,
                     SymbolOutOfRange, decrypt_bytes, derive_file_key,
                     encrypt_bytes, mask_schedule_for_key, open_file,
                     seal_file, symbol_width)
from .sharing import (BindingCode, CorruptShareRecord, EncryptedShare,
                      NotEnoughUsers, SecretTooLarge, SharePoint,
                      binding_code, decrypt_share, derive_attribute_tokens,
                      derive_binding_x, encrypt_share, split_secret)
from .interpolate import (DuplicateAbscissa, NotEnoughPoints,
                          ReconstructionInput, reconstruct_polynomial,
                          reconstruct_secret, verify_binding)
from .storage import (HEADER_BYTES, IoFailure, NotFound, ObjectStore,
                      POLICY_FILENAME, Truncated, decode_envelope,
                      encode_envelope, object_key)
from .authz import (BindingMismatch, CorruptPolicy, DuplicateUser,
                    FileGrant, InsufficientPoints, InvalidFileId, NoConsumers,
                    NotGranted, PolicyDb, RoleMismatch, THRESHOLD,
                    UnknownFile, UnknownOwner, UnknownUser, UserRecord, UserType,
                    db_from_json, db_to_json, grant_access, load_db,
                    persist_db, register_user, request_decrypt, revoke_user,
                    update_owner_share)

__version__ = "0.1.0"
